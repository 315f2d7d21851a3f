"""Numerical laboratory for embedding-spectrum collapse under smoothing
regularization.

Three flows over a linear model H = X W are available, plus one directly in
feature space:

* ``closed_form_trajectory`` — W(t) = exp(sign * P t) W(0) where
  P = X^T L X; the written form of the flow (sign=+1) and the honest
  descent direction (sign=-1) are both exposed because they make opposite
  ends of the spectrum survive.
* ``gd_linear_trajectory`` — the explicit iteration W <- W - 2 eta P W,
  i.e. plain gradient descent on tr(W^T P W).
* ``feature_space_trajectory`` — H <- [(1 - 2 tau) I + 2 tau A_sym] H, the
  update rule for embeddings treated as free variables under the smoothness
  penalty; tau = 1/2 reduces to repeated propagation.
* ``free_embedding_optimize`` — gradient descent on the orthogonality-
  regularized cross-correlation loss with the embedding entries as the only
  parameters, for checking its fixed point (smoothed and orthogonal).

Verifiers turn the singular-value/eigenvalue ratio claims into numeric
checks: small/large singular-value ratios must be non-increasing along a
run, and with whitened inputs the embedding covariance spectrum must equal
the squared weight singular values snapshot by snapshot.
``SIMULATIONS`` runs and judges each kind of ``orthoreg simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigError, Divergence, InputNotWhitened, ShapeMismatch, UnstableStepSize,
                     check_range)
from .graphio import NormalizedOperator, SparseGraph, SYM_KIND, normalize, write_csv
from .reg import RegularizerSpec, cross_correlation, neighborhood_summary, orthoreg_loss
from .tensor import (
    EigenReport,
    as_matrix,
    correlation,
    covariance,
    eigen_report,
    nesum,
    singular_values,
    spmm,
    sym_eig,
    sym_eigvals,
)

WHITEN_TOL = 1e-6
SPECTRUM_IDENTITY_TOL = 1e-8
_TINY = 1e-300


@dataclass(frozen=True)
class Snapshot:
    step: int
    state: np.ndarray
    singular_values: np.ndarray
    eigen_report: EigenReport


@dataclass(frozen=True)
class DynamicsRun:
    snapshots: list

    def sv_matrix(self) -> np.ndarray:
        """Snapshot-by-index singular value table (rows = snapshots)."""
        return np.vstack([s.singular_values for s in self.snapshots])


@dataclass(frozen=True)
class CollapseVerdict:
    monotone_ratio_ok: bool
    vanishing_ratio_estimate: float
    d_split: int
    details: list


def build_p(x, lap: NormalizedOperator) -> np.ndarray:
    """Feature-space interaction matrix X^T L X, symmetrized numerically."""
    x = as_matrix(x, "x")
    p = x.T @ spmm(lap, x)
    return (p + p.T) / 2.0


def _w_snapshot(step: int, w: np.ndarray) -> Snapshot:
    """For weight-matrix runs the eigen report carries the squared singular
    values: the embedding covariance spectrum when inputs are whitened."""
    if not np.all(np.isfinite(w)):
        raise Divergence(f"weights overflowed at snapshot {step}")
    sv = singular_values(w)
    lam = sv**2
    if not np.isfinite(lam[0]):
        raise Divergence(f"squared singular values overflowed at snapshot {step}")
    return Snapshot(
        step=step,
        state=w.copy(),
        singular_values=sv,
        eigen_report=EigenReport(eigenvalues=lam, nesum=nesum(lam)),
    )


def closed_form_trajectory(p, w0, times, sign: int = +1) -> DynamicsRun:
    """W(t) = exp(sign * P t) W(0) sampled at the given times (increasing,
    starting at 0); P is eigendecomposed once and reused."""
    p = as_matrix(p, "p")
    w0 = as_matrix(w0, "w0")
    times = np.asarray(times, dtype=np.float64).ravel()
    if times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
        raise ConfigError("times must be increasing and start at 0")
    if sign not in (+1, -1):
        raise ConfigError(f"sign must be +1 or -1, got {sign}")
    if p.shape[0] != w0.shape[0]:
        raise ShapeMismatch(f"P is {p.shape} but W0 has {w0.shape[0]} rows")
    vals, vecs = sym_eig(p)
    proj = vecs.T @ w0
    snaps = []
    for k, t in enumerate(times):
        w = (vecs * np.exp(sign * vals * t)) @ proj
        snaps.append(_w_snapshot(k, w))
    return DynamicsRun(snaps)


def gd_linear_trajectory(
    x,
    lap: NormalizedOperator,
    w0,
    step_size: float,
    steps: int,
    snapshot_every: int = 1,
) -> DynamicsRun:
    """Explicit descent W <- W - 2 eta P W on the smoothness penalty of the
    linear model; requires eta * lambda_max(P) < 0.5 for stability."""
    check_range("snapshot_every", snapshot_every)
    w = as_matrix(w0, "w0").copy()
    p = build_p(x, lap)
    lam_max = float(sym_eigvals(p)[0])
    if step_size * lam_max >= 0.5:
        raise UnstableStepSize(
            f"step_size * lambda_max(P) = {step_size * lam_max:.4g} >= 0.5"
        )
    snaps = [_w_snapshot(0, w)]
    for step in range(1, steps + 1):
        w = w - 2.0 * step_size * (p @ w)
        if step % snapshot_every == 0 or step == steps:
            snaps.append(_w_snapshot(step, w))
    return DynamicsRun(snaps)


def feature_space_trajectory(
    h0,
    a_sym: NormalizedOperator,
    tau: float,
    steps: int,
    snapshot_every: int = 1,
) -> DynamicsRun:
    """Iterate H <- (1 - 2 tau) H + 2 tau A_sym H, recording the
    correlation-matrix eigen report of H at each snapshot."""
    if a_sym.kind != SYM_KIND:
        raise ShapeMismatch(f"feature-space update needs a sym operator, got {a_sym.kind}")
    check_range("tau", tau)
    check_range("snapshot_every", snapshot_every)
    h = as_matrix(h0, "h0").copy()

    def snap(step):
        return Snapshot(step=step, state=h.copy(), singular_values=singular_values(h),
                        eigen_report=eigen_report(h))

    snaps = [snap(0)]
    for step in range(1, steps + 1):
        h = (1.0 - 2.0 * tau) * h + 2.0 * tau * spmm(a_sym, h)
        if step % snapshot_every == 0 or step == steps:
            snaps.append(snap(step))
    return DynamicsRun(snaps)


def largest_gap_split(values) -> int:
    """1-based index d of the largest gap value_d - value_{d+1} in a
    non-ascending array; used to split surviving from vanishing directions."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 2:
        return 1
    gaps = v[:-1] - v[1:]
    return int(np.argmax(gaps)) + 1


def verify_ratio_monotonicity(run: DynamicsRun, d_split: int, tol: float = 1e-9) -> CollapseVerdict:
    """Check that every smaller/larger singular-value ratio is
    non-increasing across snapshots (within tol), and report the across-gap
    ratio sigma_{d+1}/sigma_d per snapshot in both directions."""
    if not run.snapshots:
        raise ShapeMismatch("run has no snapshots")
    sv = run.sv_matrix()
    n_idx = sv.shape[1]
    ratios = sv[:, None, :] / np.clip(sv[:, :, None], _TINY, None)  # [t, large i, small j]
    monotone = True
    if sv.shape[0] > 1 and n_idx > 1:
        iu, ju = np.triu_indices(n_idx, k=1)
        small_over_large = ratios[:, iu, ju]  # sigma_j / sigma_i, j > i
        increases = np.diff(small_over_large, axis=0)
        monotone = bool(np.all(increases <= tol))
    details = []
    d = min(max(d_split, 1), n_idx - 1) if n_idx > 1 else 1
    for k, s in enumerate(run.snapshots):
        big = max(float(sv[k, d - 1]), _TINY)
        small = float(sv[k, d]) if n_idx > 1 else float(sv[k, 0])
        details.append(
            {
                "step": s.step,
                "small_over_large": small / big,
                "large_over_small": big / max(small, _TINY),
            }
        )
    return CollapseVerdict(
        monotone_ratio_ok=monotone,
        vanishing_ratio_estimate=details[-1]["small_over_large"],
        d_split=d,
        details=details,
    )


def whiten(x) -> np.ndarray:
    """Center and whiten columns so the covariance is the identity
    (eigendecomposition-based); needs more rows than columns and a
    non-singular covariance."""
    x = as_matrix(x, "x")
    if x.shape[0] <= x.shape[1]:
        raise ShapeMismatch("whitening needs more rows than columns")
    centered = x - x.mean(axis=0, keepdims=True)
    vals, vecs = sym_eig(covariance(centered))
    if vals[-1] <= 1e-12 * max(vals[0], 1.0):
        raise ShapeMismatch("covariance is numerically singular; cannot whiten")
    return centered @ (vecs / np.sqrt(vals)) @ vecs.T


def verify_spectrum_identity(x, run: DynamicsRun) -> CollapseVerdict:
    """With whitened inputs (covariance within WHITEN_TOL of the identity),
    the embedding covariance eigenvalues must equal the squared weight
    singular values at every snapshot (within SPECTRUM_IDENTITY_TOL of the
    leading eigenvalue), after which the ratio monotonicity check runs on
    the eigenvalue sequence itself, split at its steepest final drop."""
    x = as_matrix(x, "x")
    cov = covariance(x)
    if float(np.abs(cov - np.eye(cov.shape[0])).max()) > WHITEN_TOL:
        raise InputNotWhitened(
            f"input covariance deviates from identity by more than {WHITEN_TOL:g}"
        )
    lam_rows = []
    max_err = 0.0
    for s in run.snapshots:
        lam = sym_eigvals(covariance(x @ s.state))
        sigma_sq = s.singular_values**2
        if lam.size != sigma_sq.size:
            raise ShapeMismatch("eigenvalue and singular-value counts differ")
        scale = max(float(lam[0]), 1e-12)
        max_err = max(max_err, float(np.abs(lam - sigma_sq).max()) / scale)
        lam_rows.append(lam)
    if max_err > SPECTRUM_IDENTITY_TOL:
        raise ShapeMismatch(
            f"covariance spectrum disagrees with squared singular values: "
            f"max relative error {max_err:.3e} > {SPECTRUM_IDENTITY_TOL:g}"
        )
    final = lam_rows[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        drop = final[1:] / np.clip(final[:-1], _TINY, None)
    d_split = int(np.argmin(drop)) + 1 if final.size > 1 else 1
    pseudo = replace(run, snapshots=[replace(s, singular_values=lam)
                                     for s, lam in zip(run.snapshots, lam_rows)])
    verdict = verify_ratio_monotonicity(pseudo, d_split, tol=SPECTRUM_IDENTITY_TOL)
    verdict.details.append({"lambda_sigma_sq_max_rel_err": max_err})
    return verdict


def free_embedding_optimize(
    g: SparseGraph,
    n: int,
    d: int,
    alpha: float,
    beta: float,
    steps: int,
    lr: float,
    seed: int = 0,
    history_every: int = 50,
):
    """Gradient descent on the cross-correlation loss with the embedding
    entries as the only parameters (1-hop pooling); returns the final
    embeddings and a history of (step, loss, off_diag_norm, smoothness).
    """
    if n != g.n_nodes:
        raise ShapeMismatch(f"n={n} but graph has {g.n_nodes} nodes")
    check_range("lr", lr)
    check_range("history_every", history_every)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, d))
    a_rw = normalize(g, "rw")
    spec = RegularizerSpec(kind="orthoreg", alpha=alpha, beta=beta, hops=1)

    def metrics(step, value):
        auto = correlation(h)
        off = auto - np.diag(np.diag(auto))
        cross = cross_correlation(h, neighborhood_summary(h, a_rw, 1))
        return {
            "step": step,
            "loss": value,
            "off_diag_norm": float(np.sum(off * off)),
            "smoothness": float(np.mean(np.diag(cross.c))),
        }

    history = []
    with np.errstate(over="ignore", invalid="ignore"):  # the loss check reports a blow-up
        for step in range(steps):
            value, grad = orthoreg_loss(h, a_rw, spec)
            if not np.isfinite(value):
                raise Divergence(f"loss became non-finite at step {step}")
            if step % history_every == 0:
                history.append(metrics(step, value))
            h -= lr * grad
    value, _ = orthoreg_loss(h, a_rw, spec)
    history.append(metrics(steps, value))
    return h, history


# A simulate run records about SNAPSHOTS snapshots. The weight-matrix kinds judge ratio
# monotonicity only on snapshots whose sigma_min / sigma_max is at least RATIO_FLOOR: gradient
# descent shrinks W by 80+ orders of magnitude over the default run, and below about
# eps * sigma_max the small singular values are rounding noise whose ratios jitter; 1e-8 (about
# sqrt(eps)) keeps half the digits. dynamics.csv keeps every snapshot.
SNAPSHOTS, RATIO_FLOOR = 50, 1e-8
OFF_DIAG_MAX = 0.05  # a free-embedding run is orthogonal below this off-diagonal norm
WEIGHT_RUN_KINDS = ("closed-form", "gd-linear")  # whitening needs more nodes than dim


def closed_form_horizon(eigs) -> float:
    """min(12 / (lambda_max - lambda_min), 50 / lambda_max): past the cap exp(P t) can overflow."""
    return min(12.0 / max(float(eigs[0] - eigs[-1]), 1e-9), 50.0 / max(float(eigs[0]), 1e-9))


def _whitened_problem(graph: SparseGraph, dim: int, seed: int):
    lap = normalize(graph, "laplacian")
    x = whiten(np.random.default_rng(seed).standard_normal((graph.n_nodes, dim)))
    p = build_p(x, lap)
    return lap, x, p, sym_eigvals(p)


def _weight_run_verdict(run: DynamicsRun, eigs) -> CollapseVerdict:
    """verify_ratio_monotonicity above RATIO_FLOOR, split at P's largest eigenvalue gap."""
    resolved = [s for s in run.snapshots
                if s.singular_values[-1] >= RATIO_FLOOR * s.singular_values[0]]
    return verify_ratio_monotonicity(replace(run, snapshots=resolved), largest_gap_split(eigs))


def _closed_form(graph, *, dim, seed, sign, **_):
    _, _, p, eigs = _whitened_problem(graph, dim, seed)
    times = np.linspace(0.0, closed_form_horizon(eigs), SNAPSHOTS)
    run = closed_form_trajectory(p, np.eye(dim), times, sign=sign)
    return run, _weight_run_verdict(run, eigs)


def _gd_linear(graph, *, dim, seed, steps, **_):
    lap, x, _, eigs = _whitened_problem(graph, dim, seed)
    eta = 0.4 / max(float(eigs[0]), 1e-9)  # gd_linear_trajectory needs eta * lambda_max < 0.5
    run = gd_linear_trajectory(x, lap, np.eye(dim), eta, steps,
                               snapshot_every=max(1, steps // SNAPSHOTS))
    return run, _weight_run_verdict(run, eigs)


def _feature_update(graph, *, dim, seed, steps, tau, **_):
    h0 = np.random.default_rng(seed).standard_normal((graph.n_nodes, dim))
    run = feature_space_trajectory(h0, normalize(graph, "sym"), tau, steps,
                                   snapshot_every=max(1, steps // SNAPSHOTS))
    first, last = run.snapshots[0].eigen_report.nesum, run.snapshots[-1].eigen_report.nesum
    return run, CollapseVerdict(monotone_ratio_ok=bool(last <= first), d_split=1,
                                vanishing_ratio_estimate=float(last / max(first, 1e-12)),
                                details=[{"initial_nesum": first, "final_nesum": last}])


def _free_embedding(graph, *, dim, seed, steps, alpha, beta, lr, **_):
    _, history = free_embedding_optimize(graph, graph.n_nodes, dim, alpha, beta, steps, lr, seed)
    off = history[-1]["off_diag_norm"]
    return None, CollapseVerdict(monotone_ratio_ok=bool(off < OFF_DIAG_MAX),
                                 vanishing_ratio_estimate=off, d_split=dim, details=history)


# simulate's kinds: SIMULATIONS[kind](graph, dim=, steps=, seed=, tau=, sign=, alpha=, beta=,
# lr=) builds the input, runs the flow and returns (DynamicsRun or None, CollapseVerdict)
SIMULATIONS = {"closed-form": _closed_form, "gd-linear": _gd_linear,
               "feature-update": _feature_update, "free-embedding": _free_embedding}


def write_dynamics_csv(run: DynamicsRun, path) -> None:
    """One row per (step, index): step, index, singular_value, eigenvalue,
    nesum."""
    write_csv(path, ["step", "index", "singular_value", "eigenvalue", "nesum"],
              ([s.step, i + 1, float(sv), float(eig), float(s.eigen_report.nesum)]
               for s in run.snapshots
               for i, (sv, eig) in enumerate(zip(s.singular_values,
                                                 s.eigen_report.eigenvalues))))
