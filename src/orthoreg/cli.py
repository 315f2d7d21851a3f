"""Command-line entry point.

Subcommands: ``ingest`` (build a canonical dataset directory), ``train``
(one training configuration, writing metrics.jsonl / spectrum.csv /
report.json / checkpoint.npz), ``simulate`` (collapse-dynamics runs,
writing dynamics.csv and verdict.json), ``suite`` (the consolidated
experiment suites: table1, table3, coldstart, robustness), and ``bench``
(the inference benchmark, MLP against graph-convolution forward).

Configuration comes from an optional flat ``key = value`` file plus flags;
flags override the file, and a setting given by neither takes its
TrainConfig / RegularizerSpec default, or for a regularizer strength the
defaults table in ``experiments``. Every run echoes the effective
configuration to ``config.resolved`` in its output directory. Exit codes:
0 success, otherwise the ``exit_code`` of the package error raised (2
configuration error, 3 data error, 4 numerical divergence). ``stderr``
carries human-readable messages; ``stdout`` carries at most one final JSON
line. ``ORTHOREG_THREADS`` caps trial-level parallelism.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import collapse, experiments, ingest, synth
from .errors import ConfigError, OrthoRegError
from .experiments import TrainConfig
from .graphio import load_dataset, normalize, text_lines
from .net import save_checkpoint
from .reg import POOL_AVERAGE, POOL_SECOND_HOP, REG_KINDS, RegularizerSpec
from .tensor import sym_eigvals


def _parse_bool(text: str) -> bool:
    value = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}.get(text.lower())
    if value is None:
        raise ValueError(text)
    return value


# config keys, named as their flags' dests: every RegularizerSpec field
# (``kind`` spelled ``reg``), every TrainConfig field but the nested spec and
# the explicit layer dims, and the run's dataset and output directory. A
# value parses by the type of its field's default.
SPEC_KEYS = {"reg" if f.name == "kind" else f.name: f for f in fields(RegularizerSpec)}
TRAIN_KEYS = {f.name: f for f in fields(TrainConfig) if f.name not in ("regularizer", "dims")}
CONFIG_KEYS = {
    **{key: _parse_bool if isinstance(f.default, bool) else type(f.default)
       for key, f in {**SPEC_KEYS, **TRAIN_KEYS}.items()},
    "dataset": str,
    "out": str,
}


def _parse_config_file(path) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, raw in enumerate(text_lines(path, ConfigError), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: bad value for '{key}': {value!r}"
            ) from None
    return values


def _merge_config(args, file_values: dict) -> dict:
    merged = dict(file_values)
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _train_config_from(merged: dict) -> TrainConfig:
    """The TrainConfig of the merged settings: a regularizer strength that
    is not set comes from the defaults table (see
    experiments.resolve_regularizer), any other setting from its field."""
    spec = experiments.resolve_regularizer(
        {f.name: merged[key] for key, f in SPEC_KEYS.items() if key in merged},
        merged.get("dataset") or "",
    )
    return TrainConfig(regularizer=spec, **{k: merged[k] for k in TRAIN_KEYS if k in merged})


def _write_resolved(out_dir, merged: dict, config: TrainConfig | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    lines = {}
    if config is not None:
        lines.update({key if key == "reg" else f"reg.{key}": getattr(config.regularizer, f.name)
                      for key, f in SPEC_KEYS.items()})
        lines.update({key: getattr(config, key) for key in TRAIN_KEYS})
    for k, v in merged.items():
        if k in ("dataset", "out"):
            lines[k] = v
    with open(os.path.join(out_dir, "config.resolved"), "w", encoding="utf-8",
              newline="\n") as fh:
        for key in sorted(lines):
            fh.write(f"{key} = {lines[key]}\n")


def _load(dataset_path: str):
    if not dataset_path:
        raise ConfigError("a --dataset directory is required")
    return load_dataset(dataset_path)


def _write_suite_outputs(out_dir, name, rows: list, header: list) -> None:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    json_path = os.path.join(out_dir, f"{name}.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([dict(zip(header, row)) for row in rows], fh, indent=2)
        fh.write("\n")


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _flag_values(text: str, parse, flag: str) -> list:
    """The comma-separated values of ``flag``, each parsed by ``parse``."""
    try:
        return [parse(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"{flag} takes comma-separated {parse.__name__} values, got {text!r}"
        ) from None


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    if args.kind == "synthetic":
        kwargs = {}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        ingest.write_synthetic(args.out, **kwargs)
    else:
        if not args.content or not args.cites:
            raise ConfigError("content-cites ingest needs --content and --cites")
        ingest.convert_content_cites(
            args.content, args.cites, args.out,
            seed=args.seed if args.seed is not None else 0,
            splits_dir=args.splits,
        )
    print(json.dumps({"ingested": args.out}))
    return 0


def cmd_train(args) -> int:
    file_values = _parse_config_file(args.config) if args.config else {}
    merged = _merge_config(args, file_values)
    out_dir = merged.get("out", "runs/train")
    config = _train_config_from(merged)
    graph, data = _load(merged.get("dataset"))

    tuned = None
    if getattr(args, "tune", False):
        if config.regularizer.kind != "orthoreg":
            raise ConfigError("--tune applies to the orthoreg regularizer")
        tuned = experiments.tune_coarse_grid(graph, data, base_config=config)
        best = tuned["best"]
        config.regularizer = replace(config.regularizer, alpha=best["alpha"], beta=best["beta"])

    _write_resolved(out_dir, merged, config)

    def write_artifacts(params, history):
        experiments.write_metrics_jsonl(history, os.path.join(out_dir, "metrics.jsonl"))
        experiments.write_spectrum_csv(history, os.path.join(out_dir, "spectrum.csv"))
        save_checkpoint(params, os.path.join(out_dir, "checkpoint.npz"))

    report = experiments.run_trials(config, graph, data, on_first_trial=write_artifacts)
    if tuned is not None:
        report.extras["tuned"] = tuned["best"]
    experiments.write_report_json(report, os.path.join(out_dir, "report.json"))
    print(json.dumps({"mean_test_acc": report.mean_acc, "std": report.std_acc,
                      "out": out_dir}))
    return 0


def _make_graph(args):
    n, seed, kind = args.n, args.seed, args.graph
    if kind == "sbm":
        graph, _ = synth.sbm_graph(n_nodes=n, seed=seed)
        return graph
    if kind == "ring":
        return synth.ring_graph(n)
    if kind == "path":
        return synth.path_graph(n)
    if kind == "star":
        return synth.star_graph(n - 1)
    raise ConfigError(f"unknown graph kind: {kind!r}")


# The weight-matrix runs judge ratio monotonicity only on snapshots whose
# sigma_min / sigma_max is at least this. Gradient descent shrinks W by 80+
# orders of magnitude over the default run, and below about eps * sigma_max
# the small singular values are rounding noise whose ratios jitter; 1e-8
# (about sqrt(eps)) keeps half the digits. dynamics.csv keeps every snapshot.
RATIO_FLOOR = 1e-8


def _weight_run_verdict(run, eigs) -> collapse.CollapseVerdict:
    """verify_ratio_monotonicity over the snapshots above RATIO_FLOOR, split
    at the largest gap of P's eigenvalues."""
    resolved = [s for s in run.snapshots
                if s.singular_values[-1] >= RATIO_FLOOR * s.singular_values[0]]
    return collapse.verify_ratio_monotonicity(replace(run, snapshots=resolved),
                                              collapse.largest_gap_split(eigs))


# the simulate kinds that evolve a weight matrix on whitened node features
WEIGHT_RUN_KINDS = ("closed-form", "gd-linear")


def cmd_simulate(args) -> int:
    out_dir = args.out or "runs/simulate"
    seed, steps = args.seed, args.steps
    for flag, value, least in (("--dim", args.dim, 1), ("--steps", steps, 1), ("--n", args.n, 2)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    # whitening the node features needs more nodes than feature columns
    if args.kind in WEIGHT_RUN_KINDS and args.dim >= args.n:
        raise ConfigError(f"--dim must be below --n for --kind {args.kind}, "
                          f"got --dim {args.dim} and --n {args.n}")
    rng = np.random.default_rng(seed)
    graph = _make_graph(args)
    os.makedirs(out_dir, exist_ok=True)

    if args.kind in WEIGHT_RUN_KINDS:
        lap = normalize(graph, "laplacian")
        x = collapse.whiten(rng.standard_normal((graph.n_nodes, args.dim)))
        p = collapse.build_p(x, lap)
        eigs = sym_eigvals(p)
        if args.kind == "closed-form":
            spread = max(float(eigs[0] - eigs[-1]), 1e-9)
            # exp(P t) grows like e^(lambda_max t): past t = 50 / lambda_max
            # the squared singular values can overflow (a star graph's P does)
            t_max = min(12.0 / spread, 50.0 / max(float(eigs[0]), 1e-9))
            run = collapse.closed_form_trajectory(p, np.eye(args.dim),
                                                  np.linspace(0.0, t_max, 50), sign=args.sign)
        else:
            eta = 0.4 / max(float(eigs[0]), 1e-9)
            run = collapse.gd_linear_trajectory(
                x, lap, np.eye(args.dim), eta, steps, snapshot_every=max(1, steps // 50)
            )
        verdict = _weight_run_verdict(run, eigs)
    elif args.kind == "feature-update":
        a_sym = normalize(graph, "sym")
        h0 = rng.standard_normal((graph.n_nodes, args.dim))
        run = collapse.feature_space_trajectory(
            h0, a_sym, args.tau, steps, snapshot_every=max(1, steps // 50)
        )
        first, last = run.snapshots[0].eigen_report, run.snapshots[-1].eigen_report
        verdict = collapse.CollapseVerdict(
            monotone_ratio_ok=bool(last.nesum <= first.nesum),
            vanishing_ratio_estimate=float(last.nesum / max(first.nesum, 1e-12)),
            d_split=1,
            details=[{"initial_nesum": first.nesum, "final_nesum": last.nesum}],
        )
    elif args.kind == "free-embedding":
        h, history = collapse.free_embedding_optimize(
            graph, graph.n_nodes, args.dim, args.alpha, args.beta, steps, args.lr, seed=seed
        )
        final = history[-1]
        verdict = collapse.CollapseVerdict(
            monotone_ratio_ok=bool(final["off_diag_norm"] < 0.05),
            vanishing_ratio_estimate=final["off_diag_norm"],
            d_split=args.dim,
            details=history,
        )
        run = None
    else:
        raise ConfigError(f"unknown simulation kind: {args.kind!r}")

    if args.kind != "free-embedding":
        collapse.write_dynamics_csv(run, os.path.join(out_dir, "dynamics.csv"))
    verdict_payload = {
        "kind": args.kind,
        "monotone_ratio_ok": verdict.monotone_ratio_ok,
        "vanishing_ratio_estimate": verdict.vanishing_ratio_estimate,
        "d_split": verdict.d_split,
        "details": verdict.details,
    }
    with open(os.path.join(out_dir, "verdict.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(verdict_payload, fh, indent=2, default=float)
        fh.write("\n")
    _write_resolved(out_dir, {"out": out_dir})
    print(json.dumps({"kind": args.kind, "monotone_ratio_ok": verdict.monotone_ratio_ok,
                      "out": out_dir}))
    return 0


SUITES = ("table1", "table3", "coldstart", "robustness")


def cmd_suite(args) -> int:
    if args.name not in SUITES:
        raise ConfigError(
            f"unknown suite '{args.name}'; valid suites: {', '.join(SUITES)}"
        )
    out_dir = args.out or f"runs/suite-{args.name}"
    merged = {**_merge_config(args, {}), "out": out_dir}

    def cfg(kind) -> TrainConfig:
        return _train_config_from({**merged, "reg": kind})

    ortho = cfg("orthoreg")
    graph, data = _load(args.dataset)

    def row(label, report) -> list:
        return [label, report.mean_acc, report.std_acc, len(report.per_trial)]

    if args.name == "table1":
        rows = [
            row("mlp", experiments.run_trials(cfg("none"), graph, data)),
            row("lap_reg", experiments.run_trials(cfg("laplacian"), graph, data)),
            row("orthoreg", experiments.run_trials(ortho, graph, data)),
            row("sgc", experiments.sgc_comparator(graph, data, seed=ortho.seed,
                                                  trials=ortho.trials)),
            row("gcn", experiments.gcn_comparator(graph, data, seed=ortho.seed,
                                                  trials=ortho.trials)),
        ]
    elif args.name == "table3":
        rows = [row(k, r) for k, r in experiments.ablation_suite(graph, data, ortho).items()]
    elif args.name == "coldstart":
        _, reduced, cold = experiments.coldstart_split(graph, data)
        rows = [
            row("orthoreg", experiments.run_trials(ortho, reduced, cold)),
            row("mlp", experiments.run_trials(cfg("none"), reduced, cold)),
            row("gcn", experiments.gcn_comparator(reduced, cold, seed=ortho.seed,
                                                  trials=ortho.trials)),
        ]
    else:  # robustness
        ratios = _flag_values(args.ratios, float, "--ratios")
        rows = []
        for entry in experiments.robustness_sweep(ortho, graph, data, ratios):
            rows += [row("orthoreg@%.2f" % entry["ratio"], entry["model"]),
                     row("gcn@%.2f" % entry["ratio"], entry["gcn"])]
    _write_suite_outputs(out_dir, args.name, rows, ["row", "mean", "std", "n_trials"])
    _write_resolved(out_dir, merged, ortho)
    print(json.dumps({"suite": args.name, "out": out_dir}))
    return 0


def cmd_bench(args) -> int:
    out_dir = args.out or "runs/suite-bench"
    graph, data = _load(args.dataset)
    depths = _flag_values(args.depths, int, "--depths")
    rows = [[f"depth={r['depth']}", r["mlp_s"], r["gcn_s"], r["gcn_over_mlp"]]
            for r in experiments.inference_benchmark(graph, data, depths=depths, seed=args.seed)]
    _write_suite_outputs(out_dir, "bench", rows, ["row", "mlp_s", "gcn_s", "gcn_over_mlp"])
    _write_resolved(out_dir, {"dataset": args.dataset, "out": out_dir})
    print(json.dumps({"suite": "bench", "out": out_dir}))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoreg",
        description="graph-regularized MLP training and collapse-dynamics lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build a canonical dataset directory")
    p_ingest.add_argument("--kind", choices=["synthetic", "content-cites"],
                          default="synthetic")
    p_ingest.add_argument("--content")
    p_ingest.add_argument("--cites")
    p_ingest.add_argument("--splits")
    p_ingest.add_argument("--seed", type=_seed)
    p_ingest.add_argument("--out", required=True)
    p_ingest.set_defaults(func=cmd_ingest)

    p_train = sub.add_parser("train", help="train one configuration")
    p_train.add_argument("--dataset")
    p_train.add_argument("--config", help="flat key = value config file")
    p_train.add_argument("--out")
    p_train.add_argument("--reg", choices=REG_KINDS)
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--beta", type=float)
    p_train.add_argument("--lam", type=float)
    p_train.add_argument("--T", dest="hops", type=int)
    p_train.add_argument("--pooling", choices=[POOL_AVERAGE, POOL_SECOND_HOP])
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--dropout", dest="dropout_p", type=float)
    p_train.add_argument("--weight-decay", dest="weight_decay", type=float)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--hidden", type=int)
    p_train.add_argument("--embedding", type=int)
    p_train.add_argument("--seed", type=_seed)
    p_train.add_argument("--trials", type=int)
    p_train.add_argument("--eigens-every", dest="eigens_every", type=int)
    p_train.add_argument("--patience", dest="early_stop_patience", type=int)
    p_train.add_argument("--tune", action="store_true",
                         help="coarse-grid alpha/beta search before training")
    p_train.set_defaults(func=cmd_train)

    p_sim = sub.add_parser("simulate", help="collapse-dynamics simulations")
    p_sim.add_argument("--kind", choices=["closed-form", "gd-linear",
                                          "feature-update", "free-embedding"],
                       required=True)
    p_sim.add_argument("--graph", choices=["sbm", "ring", "path", "star"], default="sbm")
    p_sim.add_argument("--n", type=int, default=40)
    p_sim.add_argument("--dim", type=int, default=8)
    p_sim.add_argument("--steps", type=int, default=200)
    p_sim.add_argument("--tau", type=float, default=0.5)
    p_sim.add_argument("--sign", type=int, choices=[1, -1], default=1)
    p_sim.add_argument("--alpha", type=float, default=1e-2)
    p_sim.add_argument("--beta", type=float, default=1e-5)
    p_sim.add_argument("--lr", type=float, default=200.0)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_suite = sub.add_parser("suite", help="consolidated experiment suites")
    p_suite.add_argument("name")
    p_suite.add_argument("--dataset")
    p_suite.add_argument("--out")
    p_suite.add_argument("--alpha", type=float)
    p_suite.add_argument("--beta", type=float)
    p_suite.add_argument("--lam", type=float)
    p_suite.add_argument("--T", dest="hops", type=int)
    p_suite.add_argument("--epochs", type=int)
    p_suite.add_argument("--seed", type=_seed)
    p_suite.add_argument("--trials", type=int)
    p_suite.add_argument("--ratios", default="0,0.2,0.4", help="comma-separated mask ratios")
    p_suite.set_defaults(func=cmd_suite)

    p_bench = sub.add_parser("bench", help="inference benchmark")
    p_bench.add_argument("--dataset")
    p_bench.add_argument("--out")
    p_bench.add_argument("--depths", default="2,3,4", help="comma-separated network depths")
    p_bench.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OrthoRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
