"""Workload definitions and the timed stages the benchmark runs.

Every stage calls the program through its public functions: ``graphio``
for set-up, ``experiments.train`` for the two training arms, ``net.forward``
for feature-only inference, the ``collapse`` passes for the lab, and the
``orthoreg train`` command for the CLI. Module attributes are looked up at
call time, so the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from orthoreg import cli, collapse, experiments, graphio, net, tensor
from orthoreg.experiments import TrainConfig
from orthoreg.reg import RegularizerSpec

import standins

COLD_BATCH_ROWS = 64
COLD_BATCHES_PER_BLOCK = 60
LAB_INPUTS = 8
# snapshots per gd-linear and feature-space pass: the Jacobi solves they
# need dominate those passes, and shorter passes give a run more samples
LAB_SNAPSHOTS = 25
LOGIT_TOL = 1e-9
FREE_EMBEDDING_OFF_DIAG_MAX = 0.05
# free-embedding settings: the CLI's alpha and lr, with a beta strong
# enough to decorrelate the dimensions within the step budget
FE_ALPHA, FE_BETA, FE_LR = 1e-2, 2e-3, 200.0
CLI_FILES = ("report.json", "metrics.jsonl", "checkpoint.npz")


@dataclass(frozen=True)
class Workload:
    target: standins.Target
    epochs: int  # per experiments.train call; early stopping is off
    alpha: float
    beta: float
    lab_dim: int  # <= 128, so every lab eigensolve takes the Jacobi route
    lab_steps: int
    fe_dim: int
    fe_steps: int
    # share of the measured time each task gets, by kind of task ("train"
    # per arm, "lab" per pass); the shares of all tasks add up to 1
    time_shares: dict


WORKLOADS = {
    "cora-sparse": Workload(standins.CORA, epochs=3, alpha=2e-3, beta=1e-6,
                            lab_dim=8, lab_steps=100, fe_dim=4, fe_steps=300,
                            time_shares={"setup": 0.04, "train": 0.21, "infer": 0.1,
                                         "lab": 0.065, "cli": 0.18}),
    "collapse-lab": Workload(standins.SBM400, epochs=10, alpha=2e-3, beta=1e-6,
                             lab_dim=16, lab_steps=100, fe_dim=8, fe_steps=600,
                             time_shares={"setup": 0.04, "train": 0.1, "infer": 0.08,
                                          "lab": 0.14, "cli": 0.12}),
}
ARMS = ("mlp", "orthoreg")


class Checks:
    """Operations and output checks, counted into the error rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return ok

    def run(self, name: str, fn) -> bool:
        """Run one operation; an exception counts as a failed operation."""
        try:
            fn()
        except Exception:
            return self.check(name, False, traceback.format_exc(limit=3))
        return True


class Context:
    """Inputs and results shared by the stages of one run."""

    def __init__(self, name: str, seed: int, data_dir: str, work_dir: str, tracer=None):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.data_dir = data_dir
        self.work_dir = work_dir
        self.tracer = tracer
        self.checks = Checks()
        self.samples = {}
        self.losses = {}
        self.val_floor = None
        self.graph = self.data = self.ops = None
        # lab passes cycle through several inputs, so a run's figure is not
        # set by how fast Jacobi converges on one draw
        rng = np.random.default_rng([seed, 7])
        n, d = self.workload.target.n_nodes, self.workload.lab_dim
        self.lab_raw = [rng.standard_normal((n, d)) for _ in range(LAB_INPUTS)]
        self.lab_h0 = [rng.standard_normal((n, d)) for _ in range(LAB_INPUTS)]
        self.x_white = []
        self.cli_runs = 0
        self.params = None
        self.cold = []
        self.cold_next = 0

    def stage(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(float(value))


# ---------------------------------------------------------------------------
# set-up: load the dataset directory, build the operators, whiten the lab input


def _setup_once(ctx: Context) -> float:
    t0 = time.perf_counter()
    graph, data = graphio.load_dataset(ctx.data_dir)
    ops = {kind: graphio.normalize(graph, kind) for kind in ("rw", "sym", "laplacian")}
    x_white = [collapse.whiten(raw) for raw in ctx.lab_raw]
    elapsed = time.perf_counter() - t0
    ctx.graph, ctx.data, ctx.ops, ctx.x_white = graph, data, ops, x_white
    return elapsed


def setup(ctx: Context) -> None:
    """The first, untimed set-up; the timed ones are a task of the
    measured loop, spread over the run like every other metric."""
    _setup_once(ctx)
    val_labels = ctx.data.labels[ctx.data.val_idx]
    majority = np.bincount(val_labels).max() / val_labels.size
    ctx.val_floor = float(majority + 0.1)
    ctx.cold = cold_batches(ctx)


# ---------------------------------------------------------------------------
# training arms


def train_config(ctx: Context, arm: str, epochs: int | None = None) -> TrainConfig:
    w = ctx.workload
    epochs = w.epochs if epochs is None else epochs
    if arm == "mlp":
        spec, eigens_every = RegularizerSpec(kind="none"), 0
    else:
        spec = RegularizerSpec(kind="orthoreg", alpha=w.alpha, beta=w.beta, hops=2)
        eigens_every = epochs
    return TrainConfig(regularizer=spec, epochs=epochs, early_stop_patience=0,
                       eigens_every=eigens_every, seed=ctx.seed)


def loss_trajectory(history) -> list:
    return [(r.sup_loss, r.reg_loss) for r in history.records]


def train_arm(ctx: Context, arm: str, record: bool = True):
    """One experiments.train call; returns (params, history, wall seconds)."""
    config = train_config(ctx, arm)
    t0 = time.perf_counter()
    params, history = experiments.train(config, ctx.graph, ctx.data)
    wall = time.perf_counter() - t0
    records = history.records
    losses = [v for r in records for v in (r.train_loss, r.sup_loss, r.reg_loss)]
    ctx.checks.check(f"{arm}.epochs_run", len(records) == config.epochs,
                     f"{len(records)} of {config.epochs}")
    ctx.checks.check(f"{arm}.losses_finite", bool(np.all(np.isfinite(losses))))
    last_val = records[-1].val_acc
    ctx.checks.check(f"{arm}.val_acc_floor", last_val >= ctx.val_floor,
                     f"{last_val:.3f} < {ctx.val_floor:.3f}")
    trajectory = loss_trajectory(history)
    previous = ctx.losses.setdefault(arm, trajectory)
    # the first call sets the reference; the traced run ends with untraced
    # calls, so this also checks that tracing leaves the losses unchanged
    ctx.checks.check(f"{arm}.loss_trajectory_repeats", previous == trajectory)
    if record:
        ctx.add(f"{arm}_epoch_s", wall / config.epochs)
        ctx.add(f"{arm}_val_acc", last_val)
    return params, history, wall


# ---------------------------------------------------------------------------
# feature-only inference


def cold_batches(ctx: Context) -> list:
    """Held-out (test) rows in 64-row batches, copied out up front: the
    edge-less cold-start requests."""
    held_out = np.random.default_rng([ctx.seed, 11]).permutation(ctx.data.test_idx)
    n_batches = held_out.size // COLD_BATCH_ROWS
    rows = [held_out[i * COLD_BATCH_ROWS:(i + 1) * COLD_BATCH_ROWS] for i in range(n_batches)]
    return [(r, np.ascontiguousarray(ctx.data.features[r])) for r in rows]


def infer(ctx: Context, params) -> None:
    """One full-graph eval forward and a block of cold-start batches; each
    batch's logits must equal the full-graph logits of the same rows."""
    x = ctx.data.features
    t0 = time.perf_counter()
    with ctx.stage("net.forward.eval"):
        _, logits, _ = net.forward(params, x, train_mode=False)
    ctx.add("infer_rows_per_s", x.shape[0] / (time.perf_counter() - t0))
    worst = 0.0
    for _ in range(COLD_BATCHES_PER_BLOCK):
        rows, batch = ctx.cold[ctx.cold_next % len(ctx.cold)]
        ctx.cold_next += 1
        t0 = time.perf_counter()
        with ctx.stage("net.forward.coldstart"):
            _, batch_logits, _ = net.forward(params, batch, train_mode=False)
        ctx.add("coldstart_batch_s", time.perf_counter() - t0)
        worst = max(worst, float(np.abs(batch_logits - logits[rows]).max()))
    scale = max(1.0, float(np.abs(logits).max()))
    ctx.checks.check("coldstart_matches_full_graph", worst <= LOGIT_TOL * scale,
                     f"max |diff| {worst:.3g}")


# ---------------------------------------------------------------------------
# collapse lab passes, each timed together with its verifier


def _p_and_eigs(ctx: Context, k: int):
    p = collapse.build_p(ctx.x_white[k], ctx.ops["laplacian"])
    return p, tensor.sym_eigvals(p)


def lab_closed_form(ctx: Context, k: int) -> None:
    d = ctx.workload.lab_dim
    p, eigs = _p_and_eigs(ctx, k)
    spread = max(float(eigs[0] - eigs[-1]), 1e-9)
    # exp(P t) is formed without a shift, so on large graphs (big
    # eigenvalues, small relative spread) the horizon is capped to keep the
    # Frobenius norm of W^T W finite
    t_max = min(12.0 / spread, 50.0 / max(float(eigs[0]), 1e-9))
    run = collapse.closed_form_trajectory(p, np.eye(d), np.linspace(0.0, t_max, 50))
    verdict = collapse.verify_ratio_monotonicity(run, collapse.largest_gap_split(eigs))
    ctx.checks.check("lab.closed_form_monotone", verdict.monotone_ratio_ok)


def lab_gd_linear(ctx: Context, k: int) -> None:
    w = ctx.workload
    _, eigs = _p_and_eigs(ctx, k)
    eta = 0.4 / max(float(eigs[0]), 1e-9)
    run = collapse.gd_linear_trajectory(ctx.x_white[k], ctx.ops["laplacian"], np.eye(w.lab_dim),
                                        eta, w.lab_steps,
                                        snapshot_every=max(1, w.lab_steps // LAB_SNAPSHOTS))
    verdict = collapse.verify_spectrum_identity(ctx.x_white[k], run)
    err = verdict.details[-1]["lambda_sigma_sq_max_rel_err"]
    ctx.checks.check("lab.spectrum_identity", err <= 1e-8, f"rel err {err:.3g}")


def lab_feature_update(ctx: Context, k: int) -> None:
    w = ctx.workload
    run = collapse.feature_space_trajectory(ctx.lab_h0[k], ctx.ops["sym"], 0.5, w.lab_steps,
                                            snapshot_every=max(1, w.lab_steps // LAB_SNAPSHOTS))
    first, last = run.snapshots[0].eigen_report, run.snapshots[-1].eigen_report
    ctx.checks.check("lab.feature_update_nesum_shrinks", last.nesum <= first.nesum,
                     f"{first.nesum:.4g} -> {last.nesum:.4g}")


def lab_free_embedding(ctx: Context, k: int) -> None:
    w = ctx.workload
    _, history = collapse.free_embedding_optimize(
        ctx.graph, ctx.graph.n_nodes, w.fe_dim, FE_ALPHA, FE_BETA, w.fe_steps, FE_LR,
        seed=ctx.seed * LAB_INPUTS + k,
    )
    off = history[-1]["off_diag_norm"]
    ctx.checks.check("lab.free_embedding_orthogonal", off < FREE_EMBEDDING_OFF_DIAG_MAX,
                     f"off-diagonal norm {off:.4g}")


LAB_PASSES = (
    ("lab_closed_form_s", "lab.closed_form", lab_closed_form),
    ("lab_gd_linear_s", "lab.gd_linear", lab_gd_linear),
    ("lab_feature_update_s", "lab.feature_update", lab_feature_update),
    ("lab_free_embedding_s", "lab.free_embedding", lab_free_embedding),
)


# ---------------------------------------------------------------------------
# the orthoreg train command


def cli_args(ctx: Context, out_dir: str) -> list:
    w = ctx.workload
    return ["train", "--dataset", ctx.data_dir, "--reg", "orthoreg",
            "--alpha", repr(w.alpha), "--beta", repr(w.beta), "--T", "2",
            "--trials", "2", "--epochs", "1", "--seed", str(ctx.seed), "--out", out_dir]


def cli_train(ctx: Context, src_dir: str) -> None:
    """``orthoreg train`` as a subprocess in the untraced run; in-process
    in the traced run, so its experiments.train calls are counted."""
    out_dir = os.path.join(ctx.work_dir, f"cli-{ctx.cli_runs}")
    ctx.cli_runs += 1
    argv = cli_args(ctx, out_dir)
    if ctx.tracer is None:
        env = {**os.environ, "PYTHONPATH": src_dir}
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "orthoreg.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=150)
        ctx.add("cli_train_s", time.perf_counter() - t0)
        code, err = proc.returncode, proc.stderr.decode(errors="replace")[-500:]
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = cli.main(argv), ""
    ok = ctx.checks.check("cli.exit_0", code == 0, f"exit {code}: {err}")
    if ok:
        missing = [f for f in CLI_FILES if not os.path.isfile(os.path.join(out_dir, f))]
        ctx.checks.check("cli.outputs_written", not missing, f"missing {missing}")
    shutil.rmtree(out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------


def warm_up(ctx: Context) -> None:
    """One unrecorded single-epoch call per arm and one inference pass."""
    for arm in ARMS:
        params, _ = experiments.train(train_config(ctx, arm, epochs=1), ctx.graph, ctx.data)
    net.forward(params, ctx.data.features, train_mode=False)


def tasks(ctx: Context, src_dir: str) -> dict:
    """The timed units of work, by stage name. Each records its own
    samples; the orthoreg arm leaves its trained parameters for inference."""

    def train(arm):
        params, _, _ = train_arm(ctx, arm)
        if arm == "orthoreg":
            ctx.params = params

    out = {"setup": lambda: ctx.add("setup_s", _setup_once(ctx))}
    out.update({f"train.{arm}": (lambda arm=arm: train(arm)) for arm in ("orthoreg", "mlp")})
    out["infer"] = lambda: infer(ctx, ctx.params)

    def lab(metric, fn):
        # sample i is of input draw i % LAB_INPUTS (see report.lab_figure)
        k = len(ctx.samples.get(metric, ())) % LAB_INPUTS
        t0 = time.perf_counter()
        fn(ctx, k)
        ctx.add(metric, time.perf_counter() - t0)

    for metric, stage, fn in LAB_PASSES:
        out[stage] = lambda metric=metric, fn=fn: lab(metric, fn)
    out["cli"] = lambda: cli_train(ctx, src_dir)
    return out


def measure(ctx: Context, src_dir: str, seconds: float) -> int:
    """Share ``seconds`` between the tasks by the workload's time shares:
    each step runs the task furthest below its share so far, so short tasks
    repeat between long ones and every metric samples the whole run, not
    one burst of background load. Stops once every task has run (each lab
    pass once per input draw) and the next step would overrun; returns the
    number of steps."""
    work = tasks(ctx, src_dir)
    shares = ctx.workload.time_shares
    spent = {name: 0.0 for name in work}
    runs = {name: 0 for name in work}
    last = {}
    t0 = time.perf_counter()
    steps = 0
    while True:
        # a failed task is not scheduled again
        live = [n for n in work if spent[n] != float("inf")]
        if not live:
            return steps
        name = min(live, key=lambda n: spent[n] / shares[n.split(".")[0]])
        if (all(runs[n] >= (LAB_INPUTS if n.startswith("lab.") else 1) for n in live)
                and time.perf_counter() - t0 + last[name] > seconds):
            return steps
        start = time.perf_counter()
        with ctx.stage(name):
            ok = ctx.checks.run(name, work[name])
        last[name] = time.perf_counter() - start
        runs[name] += 1
        steps += 1
        spent[name] = spent[name] + last[name] if ok else float("inf")
