"""Training loops and experiment harnesses: the ``orthoreg suite`` tables
(SUITES: transductive classification, ablations, cold-start isolation,
edge-masking robustness), spectrum diagnostics during training, and the
inference-time benchmark, plus the propagation (SGC-style) and
graph-convolution comparators.

Everything is full batch and deterministic: all randomness flows from the
config seed, per-trial seeds are ``seed + trial_index``, and the reported
test accuracy always comes from the epoch with the best validation
accuracy.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, Divergence, EmptyMask, ShapeMismatch, check_range, check_ranges
from .graphio import (Dataset, SparseGraph, add_self_loops, mask_edges, normalize, select_isolated,
                      write_csv, write_lines)
from .net import (
    GradientBundle,
    MlpParams,
    adam_init,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_mlp,
)
from .reg import REGULARIZERS, RegularizerSpec, regularizer_value_grad
from .tensor import EigenReport, as_matrix, eigen_report, spmm, spmm_t

THREADS_ENV = "ORTHOREG_THREADS"

# per-dataset trade-off defaults (alpha, beta) for the cross-correlation
# regularizer; overridable per run and by the coarse-grid tuner
DEFAULT_HYPERS = {
    "cora": (2e-3, 1e-6),
    "citeseer": (1e-3, 1e-6),
    "pubmed": (2e-6, 2e-6),
}


def resolve_regularizer(given: dict, dataset) -> RegularizerSpec:
    """RegularizerSpec(**given), with each strength its kind reads that
    ``given`` lacks taken from DEFAULT_HYPERS (orthoreg on a dataset
    directory named after one of its datasets) or the kind's
    reg.REGULARIZERS row; a strength without a default there must be given.
    Shared by `orthoreg train` and `orthoreg suite`."""
    spec = RegularizerSpec(**given)
    defaults = dict(REGULARIZERS[spec.kind].strengths)
    name = os.path.basename(os.path.normpath(dataset)).lower()
    if spec.kind == "orthoreg" and name in DEFAULT_HYPERS:
        defaults["alpha"], defaults["beta"] = DEFAULT_HYPERS[name]
    unset = [s for s in defaults if s not in given]
    for strength in unset:
        if defaults[strength] is None:
            raise ConfigError(f"regularizer {spec.kind!r} needs {strength}: it has no default")
    return replace(spec, **{s: defaults[s] for s in unset})


@dataclass
class TrainConfig:
    """All hyperparameters of one training run."""

    regularizer: RegularizerSpec = field(default_factory=RegularizerSpec)
    lr: float = 0.01
    dropout_p: float = 0.5
    weight_decay: float = 0.0
    epochs: int = 300
    hidden: int = 256
    embedding: int = 512
    dims: list | None = None
    seed: int = 0
    eigens_every: int = 0
    early_stop_patience: int = 100
    trials: int = 10

    def __post_init__(self):
        check_ranges(vars(self))

    def resolve_dims(self, n_features: int, n_classes: int) -> list:
        if self.dims is not None:
            return list(self.dims)
        return [n_features, self.hidden, self.embedding, n_classes]


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    sup_loss: float
    reg_loss: float
    val_acc: float
    test_acc: float
    eigen: EigenReport | None = None


@dataclass
class TrainHistory:
    records: list
    best_epoch: int
    best_val_acc: float
    best_test_acc: float


@dataclass
class RunReport:
    mean_acc: float
    std_acc: float
    per_trial: list
    config: dict
    wall_clock_s: float
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mean": self.mean_acc,
            "std": self.std_acc,
            "trials": list(self.per_trial),
            "config": self.config,
            "wall_clock_s": self.wall_clock_s,
            **({"extras": self.extras} if self.extras else {}),
        }


def _dropout_seed(seed: int, epoch: int) -> int:
    return (seed * 1_000_003 + epoch) % (2**63)


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose argmax is their label."""
    if labels.size == 0:
        raise EmptyMask("accuracy over an empty index set")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def train(config: TrainConfig, graph: SparseGraph, data: Dataset, network=None):
    """Full-batch training with the configured regularizer injected at the
    embedding layer. Returns (best params, history); the returned parameters
    are from the epoch with the highest validation accuracy. The network is
    the MLP, trained on ``data.training_input`` (sparse features in CSR
    form), unless ``network(graph, config)`` builds
    another forward/backward pair over the same parameters (see
    GraphConvolution).

    Each epoch's val/test accuracy comes from an eval forward of the
    val ∪ test rows only, whose logits can differ from the full pass's rows
    in the last bit (README). The full pass runs instead on an epoch with an
    eigen report, which reads H for every row, and for every epoch of a
    ``network``, whose propagation needs every row. An empty split raises
    EmptyMask naming it before anything is built."""
    for name in ("train", "val", "test"):
        if np.size(getattr(data, f"{name}_idx")) == 0:
            raise EmptyMask(f"the {name} split is empty; training needs train, val and "
                            "test nodes")
    dims = config.resolve_dims(data.n_features, data.n_classes)
    params = init_mlp(dims, seed=config.seed)
    scored = np.union1d(data.val_idx, data.test_idx)
    if network is None:
        net_forward, net_backward = forward, backward
        x, adam_decay = data.training_input, config.weight_decay
        x_scored = x[scored]
    else:
        net = network(graph, config)
        net_forward, net_backward = net.forward, net.backward
        x, adam_decay = data.features, net.adam_weight_decay
        x_scored = None
    val_rows = np.searchsorted(scored, data.val_idx)
    test_rows = np.searchsorted(scored, data.test_idx)
    val_labels, test_labels = data.labels[data.val_idx], data.labels[data.test_idx]
    state = adam_init(params, lr=config.lr, weight_decay=adam_decay)
    op_kind = REGULARIZERS[config.regularizer.kind].operator
    operators = {} if op_kind is None else {op_kind: normalize(graph, op_kind)}

    records = []
    best_val, best_test, best_epoch = -1.0, 0.0, 0
    best_params = params.copy()
    since_improvement = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the Divergence checks report a blow-up
        for epoch in range(1, config.epochs + 1):
            h, logits, cache = net_forward(
                params,
                x,
                dropout_p=config.dropout_p,
                seed=_dropout_seed(config.seed, epoch),
                train_mode=True,
            )
            if not (np.all(np.isfinite(h)) and np.all(np.isfinite(logits))):
                raise Divergence(f"activations became non-finite at epoch {epoch}")
            sup_loss, grad_logits = cross_entropy(logits, data.labels, data.train_idx)
            reg_loss, grad_h = regularizer_value_grad(h, config.regularizer, operators)
            total = sup_loss + reg_loss
            if not (np.isfinite(total) and (grad_h is None or np.all(np.isfinite(grad_h)))):
                raise Divergence(f"loss or regularizer gradient became non-finite at epoch {epoch}")
            grads = net_backward(params, cache, grad_logits, grad_h)
            adam_step(params, grads, state)

            eig = None
            eigen_epoch = config.eigens_every > 0 and epoch % config.eigens_every == 0
            if x_scored is None or eigen_epoch:
                # neither H nor the eval cache is kept: held into the next epoch
                # they would sit under that epoch's train-mode peak
                h_eval, logits_eval = net_forward(params, x, train_mode=False)[:2]
                logits_eval = logits_eval[scored]
                if eigen_epoch:
                    eig = eigen_report(h_eval)
                del h_eval
            else:
                logits_eval = forward(params, x_scored, train_mode=False)[1]
            val_acc = _accuracy(logits_eval[val_rows], val_labels)
            test_acc = _accuracy(logits_eval[test_rows], test_labels)
            records.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=total,
                    sup_loss=sup_loss,
                    reg_loss=reg_loss,
                    val_acc=val_acc,
                    test_acc=test_acc,
                    eigen=eig,
                )
            )
            if val_acc > best_val:
                best_val, best_test, best_epoch = val_acc, test_acc, epoch
                best_params = params.copy()
                since_improvement = 0
            else:
                since_improvement += 1
                if 0 < config.early_stop_patience <= since_improvement:
                    break

    history = TrainHistory(
        records=records,
        best_epoch=best_epoch,
        best_val_acc=best_val,
        best_test_acc=best_test,
    )
    return best_params, history


def evaluate(params: MlpParams, features, labels, idx) -> float:
    """Accuracy on the rows ``idx`` of the eval-mode (dropout-free,
    graph-free) forward pass, which runs over those rows only. ``features``
    is a dense array or a scipy sparse matrix. Every row of ``idx`` needs a
    label the network can predict; an unlabeled one (-1) or one outside
    its classes raises ShapeMismatch, as a split holding one does."""
    features = features.tocsr() if sp.issparse(features) else np.asarray(features)
    labels = np.asarray(labels)
    idx = np.asarray(idx, dtype=np.int64).ravel()
    n = features.shape[0]
    if idx.size == 0:
        raise EmptyMask("evaluate needs a non-empty idx")
    if idx.min() < 0 or idx.max() >= n:
        raise ShapeMismatch(f"idx holds rows outside [0, {n}): min {idx.min()}, max {idx.max()}")
    if labels.shape[0] != n:
        raise ShapeMismatch(f"features have {n} rows but labels have {labels.shape[0]}")
    y = labels[idx]
    n_classes = params.dims[-1]
    bad = np.flatnonzero((y < 0) | (y >= n_classes))
    if bad.size:
        raise ShapeMismatch(f"idx selects row {idx[bad[0]]}, whose label {y[bad[0]]} is "
                            f"unlabeled or outside the network's classes [0, {n_classes})")
    return _accuracy(forward(params, features[idx], train_mode=False)[1], y)


def _max_workers() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return check_range(THREADS_ENV, workers)


def run_trials(
    config: TrainConfig,
    graph: SparseGraph,
    data: Dataset,
    graph_per_trial=None,
    on_first_trial=None,
    network=None,
) -> RunReport:
    """Repeat training over ``config.trials`` derived seeds and aggregate test
    accuracy (mean, population std). ``graph_per_trial`` (trial ->
    SparseGraph) lets sweeps vary the structure per trial; ``network`` is
    passed on to train(); ``on_first_trial(params, history)`` receives
    trial 0's result, so a caller can keep its artifacts without training
    it again."""
    workers = _max_workers()
    t0 = time.perf_counter()

    def one(trial: int) -> float:
        cfg = replace(config, seed=config.seed + trial)
        g = graph if graph_per_trial is None else graph_per_trial(trial)
        params, history = train(cfg, g, data, network=network)
        if trial == 0 and on_first_trial is not None:
            on_first_trial(params, history)
        return history.best_test_acc

    if workers == 1:
        accs = [one(t) for t in range(config.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            accs = list(pool.map(one, range(config.trials)))
    wall = time.perf_counter() - t0
    return RunReport(
        mean_acc=float(np.mean(accs)),
        std_acc=float(np.std(accs)),
        per_trial=[float(a) for a in accs],
        config=asdict(config),
        wall_clock_s=wall,
    )


def coldstart_split(graph: SparseGraph, data: Dataset, percentile: float = 3.0):
    """The cold-start setting: the low-degree tail of ``graph`` is isolated
    (see select_isolated), and its labeled nodes outside the train and val
    splits become the test split. Returns (isolated nodes, reduced graph, cold
    dataset)."""
    isolated, reduced = select_isolated(graph, percentile)
    test_idx = np.setdiff1d(isolated, np.concatenate([data.train_idx, data.val_idx]))
    test_idx = test_idx[data.labels[test_idx] >= 0]
    return isolated, reduced, replace(data, test_idx=test_idx)


def _table1(config_for, graph: SparseGraph, data: Dataset, *, ratios) -> list:
    """The MLP, Laplacian-regularized, orthoreg, propagation and
    graph-convolution rows, the comparators at orthoreg's seed and trials."""
    ortho = config_for("orthoreg")
    return [("mlp", run_trials(config_for("none"), graph, data)),
            ("lap_reg", run_trials(config_for("laplacian"), graph, data)),
            ("orthoreg", run_trials(ortho, graph, data)),
            ("sgc", sgc_comparator(graph, data, seed=ortho.seed, trials=ortho.trials)),
            ("gcn", gcn_comparator(graph, data, seed=ortho.seed, trials=ortho.trials))]


def _table3(config_for, graph: SparseGraph, data: Dataset, *, ratios) -> list:
    """Component ablations of the cross-correlation regularizer: drop the
    diagonal reward (alpha=0), drop the off-diagonal penalty (beta=0), and
    vary the pooling depth. A variant whose RegularizerSpec equals an
    earlier row's reuses that row's report."""
    base = config_for("orthoreg")
    if base.regularizer.kind != "orthoreg":
        raise ShapeMismatch("ablation suite expects an orthoreg base config")
    reports = {}

    def row(label, **changes):
        spec = replace(base.regularizer, **changes)
        if spec not in reports:
            reports[spec] = run_trials(replace(base, regularizer=spec), graph, data)
        return label, reports[spec]

    return [row("baseline"), row("alpha=0", alpha=0.0), row("beta=0", beta=0.0),
            *(row(f"T={t}", hops=t) for t in (1, 2, 3))]


def _coldstart(config_for, graph: SparseGraph, data: Dataset, *, ratios) -> list:
    """orthoreg, the MLP and the graph-convolution comparator trained on the
    reduced structure with the fixed labeled set and scored on the isolated
    nodes (see coldstart_split; the MLPs' inference is feature-only, the
    graph is never consulted at eval time)."""
    _, reduced, cold = coldstart_split(graph, data)
    ortho = config_for("orthoreg")
    return [("orthoreg", run_trials(ortho, reduced, cold)),
            ("mlp", run_trials(config_for("none"), reduced, cold)),
            ("gcn", gcn_comparator(reduced, cold, seed=ortho.seed, trials=ortho.trials))]


def _robustness(config_for, graph: SparseGraph, data: Dataset, *, ratios) -> list:
    """Per masking ratio, orthoreg and the graph-convolution comparator
    trained on independently masked copies of the graph (trial t masks with
    seed + t; mask_edges rejects a ratio outside [0, 1])."""
    ortho = config_for("orthoreg")
    rows = []
    for ratio in ratios:
        masker = lambda trial, r=ratio: mask_edges(graph, r, seed=ortho.seed + trial)
        rows += [("orthoreg@%.2f" % ratio, run_trials(ortho, graph, data, graph_per_trial=masker)),
                 ("gcn@%.2f" % ratio, gcn_comparator(graph, data, seed=ortho.seed,
                                                     trials=ortho.trials, graph_per_trial=masker))]
    return rows


# orthoreg suite's tables: SUITES[name](config_for, graph, data, ratios=) returns the table's
# ordered (label, RunReport) rows, where config_for(kind) is the run's TrainConfig with that
# regularizer kind
SUITES = {"table1": _table1, "table3": _table3, "coldstart": _coldstart,
          "robustness": _robustness}


def tune_coarse_grid(
    graph: SparseGraph,
    data: Dataset,
    alphas=(5e-4, 1e-3, 2e-3, 5e-3),
    ratios=(1e2, 1e3, 1e4),
    base_config: TrainConfig | None = None,
) -> dict:
    """Coarse grid over alpha and the alpha/beta ratio, selected on
    validation accuracy with a single short run per cell."""
    cfg = base_config or TrainConfig()
    best = None
    table = []
    for alpha in alphas:
        for ratio in ratios:
            beta = alpha / ratio
            spec = replace(cfg.regularizer, kind="orthoreg", alpha=alpha, beta=beta)
            _, history = train(replace(cfg, regularizer=spec), graph, data)
            cell = {"alpha": alpha, "beta": beta, "val_acc": history.best_val_acc,
                    "test_acc": history.best_test_acc}
            table.append(cell)
            if best is None or cell["val_acc"] > best["val_acc"]:
                best = cell
    return {"best": best, "table": table}


# ---------------------------------------------------------------------------
# comparators: k-step propagation + linear classifier, and a two-layer
# graph convolution trained with hand-derived gradients
# ---------------------------------------------------------------------------


def _renormalized_operator(graph: SparseGraph):
    """Self-loop-augmented symmetric normalization, the convention the
    propagation and convolution comparators are defined with."""
    return normalize(add_self_loops(graph), "sym")


# The comparators' fixed training settings; each comparator run takes its
# seed and trial count from the caller and its layer dims from the data.
SGC_CONFIG = TrainConfig(lr=0.1, dropout_p=0.0, weight_decay=5e-6, epochs=150)
GCN_CONFIG = TrainConfig(lr=0.01, dropout_p=0.5, weight_decay=5e-4, epochs=200, hidden=64,
                         early_stop_patience=100)


def sgc_comparator(
    graph: SparseGraph,
    data: Dataset,
    k: int = 2,
    seed: int = 0,
    trials: int = 10,
) -> RunReport:
    """k-step propagated features + a single linear layer, trained with
    SGC_CONFIG."""
    check_range("k", k)
    op = _renormalized_operator(graph)
    feats = data.features
    for _ in range(k):
        feats = spmm(op, feats)
    config = replace(SGC_CONFIG, dims=[data.n_features, data.n_classes], seed=seed, trials=trials)
    return run_trials(config, graph, replace(data, features=feats))


def gcn_forward(op, weights, biases, x, dropout_p=0.0, seed=0, train_mode=False):
    """Two-or-more layer graph convolution: each layer propagates the linear
    transform through spmm, which checks shapes only; ReLU between layers.
    As in net.forward only ``x`` is checked, so a numerical blow-up inside
    the layers reaches the logits, where train() reports it as Divergence.
    Dropout acts on each layer's input; the cache holds those inputs and
    the dropout scale, and gcn_backward gates each ReLU with the next
    layer's input, as net.backward does."""
    x = as_matrix(x, "x")
    if x.shape[0] != op.n_nodes:
        raise ShapeMismatch(f"operator acts on {op.n_nodes} nodes but x has {x.shape[0]} rows")
    scale = 1.0 / (1.0 - dropout_p) if train_mode and dropout_p > 0.0 else None
    rng = None if scale is None else np.random.default_rng(seed)
    inputs = []
    act = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        if scale is not None:
            act = act * (rng.random(act.shape) >= dropout_p)
            act *= scale
        inputs.append(act)
        act = spmm(op, act @ w)
        act += b
        if i < len(weights) - 1:
            np.maximum(act, 0.0, out=act)
    return act, {"inputs": inputs, "scale": scale}


def gcn_backward(op, weights, cache, grad_logits, weight_decay=0.0):
    """Exact gradients for gcn_forward; propagation is undone with the
    transposed operator. A hidden unit passed the gradient exactly when the
    next layer's input is positive there (ReLU open and unit kept). The
    gradient with respect to the input features is not formed."""
    inputs, scale = cache["inputs"], cache["scale"]
    grad_ws, grad_bs = [None] * len(weights), [None] * len(weights)
    g = grad_logits
    for i in reversed(range(len(weights))):
        if i < len(weights) - 1:
            g = g * (inputs[i + 1] > 0.0)
        back = spmm_t(op, g)
        grad_ws[i] = inputs[i].T @ back
        grad_bs[i] = g.sum(axis=0)
        if weight_decay > 0.0 and i == 0:
            grad_ws[i] = grad_ws[i] + weight_decay * weights[i]
        if i > 0:
            g = back @ weights[i].T
            if scale is not None:
                g *= scale
    return grad_ws, grad_bs


class GraphConvolution:
    """gcn_forward/gcn_backward as the network train() drives, over the
    renormalized operator of the graph it is built on. H is the logits.
    train() gives it the dense features, which its input dropout multiplies
    by a dense boolean keep mask and the scale. Its weight decay is an L2
    term on layer 0's gradient, so Adam's decoupled decay is off."""

    adam_weight_decay = 0.0

    def __init__(self, graph: SparseGraph, config: TrainConfig):
        self.op = _renormalized_operator(graph)
        self.weight_decay = config.weight_decay

    def forward(self, params: MlpParams, x, **kwargs):
        logits, cache = gcn_forward(self.op, params.layer_weights, params.layer_biases, x, **kwargs)
        return logits, logits, cache

    def backward(self, params: MlpParams, cache, grad_logits, grad_h=None):
        if grad_h is not None:
            grad_logits = grad_logits + grad_h
        grad_ws, grad_bs = gcn_backward(self.op, params.layer_weights, cache,
                                        grad_logits, self.weight_decay)
        return GradientBundle(grad_ws, grad_bs, grad_logits)


def gcn_comparator(
    graph: SparseGraph,
    data: Dataset,
    seed: int = 0,
    trials: int = 10,
    graph_per_trial=None,
) -> RunReport:
    """Two-layer graph convolution with GCN_CONFIG's settings, trained full
    batch by run_trials()."""
    config = replace(GCN_CONFIG, dims=[data.n_features, GCN_CONFIG.hidden, data.n_classes],
                     seed=seed, trials=trials)
    return run_trials(config, graph, data, graph_per_trial=graph_per_trial,
                      network=GraphConvolution)


def inference_benchmark(
    graph: SparseGraph,
    data: Dataset,
    depths=(2, 3, 4),
    width: int = 256,
    reps: int = 10,
    seed: int = 0,
) -> list:
    """Median wall-clock of feature-only MLP forward vs graph-convolution
    forward at each depth, plus their ratio. Absolute numbers are machine
    specific; the ratio is the meaningful output."""
    op = _renormalized_operator(graph)
    runners = []
    for depth in depths:
        check_range("depth", depth)
        dims = [data.n_features] + [width] * (depth - 1) + [data.n_classes]
        params = init_mlp(dims, seed=seed)
        weights, biases = params.layer_weights, params.layer_biases

        def mlp_once(params=params):
            forward(params, data.features, train_mode=False)

        def gcn_once(weights=weights, biases=biases):
            gcn_forward(op, weights, biases, data.features, train_mode=False)

        mlp_once()
        gcn_once()
        runners.append({"depth": int(depth), "mlp": mlp_once, "gcn": gcn_once,
                        "mlp_times": [], "gcn_times": []})

    # repetitions interleave across depths so background load bursts do not
    # bias one depth's median against another's
    for _ in range(reps):
        for r in runners:
            t0 = time.perf_counter()
            r["mlp"]()
            r["mlp_times"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            r["gcn"]()
            r["gcn_times"].append(time.perf_counter() - t0)

    rows = []
    for r in runners:
        mlp_t = float(np.median(r["mlp_times"]))
        gcn_t = float(np.median(r["gcn_times"]))
        rows.append(
            {
                "depth": r["depth"],
                "mlp_s": mlp_t,
                "gcn_s": gcn_t,
                "gcn_over_mlp": gcn_t / mlp_t,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# output writers (schemas documented in the README; graphio writes the text)
# ---------------------------------------------------------------------------


def write_metrics_jsonl(history: TrainHistory, path) -> None:
    write_lines(path, (json.dumps({"epoch": r.epoch, "sup_loss": r.sup_loss,
                                   "reg_loss": r.reg_loss, "val_acc": r.val_acc,
                                   "test_acc": r.test_acc})
                       for r in history.records))


def write_spectrum_csv(history: TrainHistory, path) -> None:
    rows = []
    for r in history.records:
        if r.eigen is None:
            continue
        rows += [[r.epoch, i, r.eigen.ratio(i), float(r.eigen.nesum)]
                 for i in range(1, r.eigen.eigenvalues.size + 1)]
    write_csv(path, ["epoch", "index", "ratio", "nesum"], rows)
