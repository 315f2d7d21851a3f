"""Recorded reference outputs of the command line.

RUNS is a fixed set of ``orthoreg`` commands on the ``ingest --kind
synthetic`` dataset: ``train`` with every regularizer kind (plus one
orthoreg run with ``--eigens-every``, one with ``--pooling
second_hop_only`` and one with ``--tune``), ``simulate`` of every kind (plus ``closed-form`` on
``--graph star``) and every ``suite``. ``record`` runs them through
``orthoreg.cli.main`` and keeps, for each output file, the SHA-256 of its
bytes and its values; for each ``checkpoint.npz``, the class each node is
predicted. Wall-clock fields and paths are left out of both.

test_reference_outputs.py reruns RUNS against the fixture. On the
environment the fixture was recorded on (the same FINGERPRINT) the hashes
must match; anywhere else the values must match within TOLERANCE, and
accuracies and predictions must match exactly.

Re-record after a change that alters an output on purpose, and say in
CHANGES.md which outputs changed and why:

    PYTHONPATH=src python tests/reference_outputs.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from orthoreg.cli import main
from orthoreg.graphio import load_dataset
from orthoreg.net import forward, load_checkpoint

FIXTURE = Path(__file__).with_name("reference_outputs.json")

# a float column matches when every value lies within TOLERANCE times the
# column's largest magnitude of its recorded value: across BLAS kernels the
# runs agree to about 1e-13, while a changed draw or formula moves them by
# far more
TOLERANCE = 1e-6
# columns (the last key of a JSON path, or a CSV header) that hold
# accuracies, which must match exactly on every environment
ACCURACY_COLUMNS = {"val_acc", "test_acc", "mean", "std", "trials", "mean_test_acc"}
# stdout keys and config.resolved lines that hold paths
PATH_KEYS = {"out", "dataset", "ingested"}

TRAIN = ["--epochs", "5", "--trials", "2", "--hidden", "16", "--embedding", "8",
         "--patience", "0"]
RUNS = {
    "train-none": ["train", "--reg", "none", *TRAIN],
    "train-laplacian": ["train", "--reg", "laplacian", *TRAIN],
    "train-preg": ["train", "--reg", "preg", "--lam", "0.05", *TRAIN],
    "train-corr_identity": ["train", "--reg", "corr_identity", "--lam", "0.05", *TRAIN],
    "train-orthoreg": ["train", "--reg", "orthoreg", *TRAIN],
    "train-orthoreg-eigens": ["train", "--reg", "orthoreg", "--eigens-every", "2", *TRAIN],
    "train-orthoreg-second-hop": ["train", "--reg", "orthoreg", "--pooling",
                                  "second_hop_only", *TRAIN],
    "train-orthoreg-tune": ["train", "--reg", "orthoreg", "--tune", *TRAIN],
    "simulate-closed-form": ["simulate", "--kind", "closed-form"],
    "simulate-closed-form-star": ["simulate", "--kind", "closed-form", "--graph", "star"],
    "simulate-gd-linear": ["simulate", "--kind", "gd-linear"],
    "simulate-feature-update": ["simulate", "--kind", "feature-update"],
    "simulate-free-embedding": ["simulate", "--kind", "free-embedding"],
    "suite-table1": ["suite", "table1", "--epochs", "3", "--trials", "2"],
    "suite-table3": ["suite", "table3", "--epochs", "3", "--trials", "2"],
    "suite-coldstart": ["suite", "coldstart", "--epochs", "3", "--trials", "2"],
    "suite-robustness": ["suite", "robustness", "--ratios", "0,0.4", "--epochs", "3",
                         "--trials", "2"],
}


def fingerprint() -> dict:
    """What the output bytes depend on besides the code: the interpreter,
    numpy, scipy, the BLAS build and the CPU model."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k, "")) for k in ("name", "version",
                                                         "openblas configuration"))
    except TypeError:  # numpy < 1.25 has no dicts mode
        blas = "unknown"
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu": cpu}


def _canonical_bytes(name: str, raw: bytes) -> bytes:
    """The file's bytes without its wall-clock and path lines."""
    if name == "report.json":
        drop = (b'  "wall_clock_s": ',)
    elif name == "config.resolved":
        drop = tuple(f"{key} = ".encode() for key in PATH_KEYS)
    else:
        return raw
    return b"".join(line for line in raw.splitlines(keepends=True)
                    if not line.startswith(drop))


def _columns(tree, prefix: str, into: dict) -> dict:
    """Each leaf of a JSON value under its dotted key path, list indices
    dropped, so a list of records becomes one column per key."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            _columns(value, f"{prefix}.{key}" if prefix else key, into)
    elif isinstance(tree, list):
        for value in tree:
            _columns(value, prefix, into)
    else:
        into.setdefault(prefix, []).append(tree)
    return into


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _values(name: str, raw: bytes) -> dict:
    if name.endswith(".npz"):
        return {}
    text = raw.decode("utf-8")
    if name == "report.json":
        report = json.loads(text)
        del report["wall_clock_s"]
        return _columns(report, "", {})
    if name.endswith(".json"):
        return _columns(json.loads(text), "", {})
    if name.endswith(".jsonl"):
        return _columns([json.loads(line) for line in text.splitlines()], "", {})
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        return {col: [_number(row[i]) for row in rows[1:]] for i, col in enumerate(rows[0])}
    pairs = (line.split(" = ", 1) for line in text.splitlines())  # config.resolved
    return {key: [value] for key, value in pairs if key not in PATH_KEYS}


def _predictions(checkpoint: str, dataset: str) -> list:
    _, data = load_dataset(dataset)
    logits = forward(load_checkpoint(checkpoint), data.features)[1]
    return np.argmax(logits, axis=1).tolist()


def run_all(workdir: str) -> dict:
    """Every run of RUNS, by name: its stdout's values and, for each file it
    writes, the SHA-256 of its canonical bytes and its values."""
    dataset = os.path.join(workdir, "data")
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["ingest", "--kind", "synthetic", "--out", dataset]) != 0:
            raise RuntimeError("ingest failed")
    results = {}
    for run, argv in RUNS.items():
        out = os.path.join(workdir, run)
        if argv[0] != "simulate":
            argv = argv + ["--dataset", dataset]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv + ["--out", out])
        if code != 0:
            raise RuntimeError(f"{run} exited {code}")
        printed = {k: v for k, v in json.loads(stdout.getvalue()).items() if k not in PATH_KEYS}
        files = {}
        for name in sorted(os.listdir(out)):
            raw = Path(out, name).read_bytes()
            entry = {"sha256": hashlib.sha256(_canonical_bytes(name, raw)).hexdigest(),
                     "values": _values(name, raw)}
            if name == "checkpoint.npz":
                entry["predictions"] = _predictions(os.path.join(out, name), dataset)
            files[name] = entry
        results[run] = {"stdout": _columns(printed, "", {}), "files": files}
    return results


def value_mismatches(want: dict, got: dict, path: str = "") -> list:
    """Where ``got`` differs from the recorded ``want`` beyond what another
    environment may change: structure, strings, integers, flags, accuracies
    and predictions exactly, other floats within TOLERANCE of their column's
    scale. Hashes are not compared."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{path}: recorded keys {sorted(want)}, got {got!r:.200}"]
        return [m for key in want if key != "sha256"
                for m in value_mismatches(want[key], got[key], f"{path}/{key}")]
    if not isinstance(got, list) or len(want) != len(got):
        return [f"{path}: {len(want)} recorded values, got {got!r:.80}"]
    column = path.rsplit("/", 1)[-1].rsplit(".", 1)[-1]
    floats = [isinstance(w, float) for w in want]
    if column in ACCURACY_COLUMNS or not any(floats):
        return [] if want == got else [f"{path}: {got!r:.80} != recorded {want!r:.80}"]
    scale = max(abs(w) for w, f in zip(want, floats) if f)
    bad = [i for i, (w, g, f) in enumerate(zip(want, got, floats))
           if (abs(g - w) > TOLERANCE * scale if f else g != w)]
    return [f"{path}[{i}]: {got[i]!r} != recorded {want[i]!r}" for i in bad[:3]]


def hash_mismatches(want: dict, got: dict) -> list:
    return [f"{run}/{name}" for run in want for name, entry in want[run]["files"].items()
            if got.get(run, {}).get("files", {}).get(name, {}).get("sha256") != entry["sha256"]]


def record() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        fixture = {"fingerprint": fingerprint(), "runs": run_all(workdir)}
    FIXTURE.write_text(json.dumps(fixture, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)", file=sys.stderr)


if __name__ == "__main__":
    record()
