"""Graph regularizers on the embedding matrix H, each returning its value
and the exact analytic gradient dvalue/dH.

Three families are implemented:

* smoothness penalties: ``laplacian_reg`` (trace form against the
  normalized Laplacian) and ``p_reg`` (squared propagation residual);
* ``corr_identity_reg``: pushes the auto-correlation matrix of H toward
  the identity (off-diagonal suppression only, since the diagonal is 1 by
  construction);
* ``orthoreg_loss``: the cross-correlation loss between H and its
  multi-hop neighborhood summary S — the diagonal is rewarded (local
  smoothness) while off-diagonal entries are squared-penalized
  (decorrelated dimensions).

Correlations standardize each column (subtract mean, divide by
sqrt(variance + CORRELATION_EPS)); gradients chain exactly through that
standardization and, for the cross term, through S's linear dependence on
H via transposed operator products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeMismatch
from .graphio import LAPLACIAN_KIND, NormalizedOperator, RW_KIND, SYM_KIND
from .tensor import CORRELATION_EPS, as_matrix, spmm, spmm_t

POOL_AVERAGE = "average_1toT"
POOL_SECOND_HOP = "second_hop_only"

# the regularizer kinds and the strengths each one reads
REG_STRENGTHS = {
    "none": (),
    "laplacian": ("lam",),
    "preg": ("lam",),
    "corr_identity": ("lam",),
    "orthoreg": ("alpha", "beta"),
}
REG_KINDS = tuple(REG_STRENGTHS)


@dataclass(frozen=True)
class RegularizerSpec:
    """Which regularizer to train with, and its strengths.

    kinds (REG_KINDS): ``none``, ``laplacian`` (uses lam), ``preg`` (lam),
    ``corr_identity`` (lam), ``orthoreg`` (alpha, beta, hops,
    pooling); REG_STRENGTHS lists the strengths each reads.
    ``center_correlation=False`` switches the cross-correlation
    to the uncentered second-moment variant.
    """

    kind: str = "none"
    lam: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    hops: int = 2
    pooling: str = POOL_AVERAGE
    center_correlation: bool = True

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ConfigError(f"unknown regularizer kind: {self.kind!r}")
        for name in ("lam", "alpha", "beta"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if self.hops < 1:
            raise ConfigError("hops must be >= 1")
        if self.pooling not in (POOL_AVERAGE, POOL_SECOND_HOP):
            raise ConfigError(f"unknown pooling mode: {self.pooling!r}")


def laplacian_reg(h, lap: NormalizedOperator, lam: float):
    """lam * tr(H^T L H) with gradient 2 lam L H."""
    h = as_matrix(h, "h")
    if lap.kind != LAPLACIAN_KIND:
        raise ShapeMismatch(f"laplacian_reg needs a laplacian operator, got {lap.kind}")
    lh = spmm(lap, h)
    value = lam * float(np.sum(h * lh))
    return value, 2.0 * lam * lh


def p_reg(h, a_sym: NormalizedOperator, lam: float):
    """(lam / N) * ||A_sym H - H||_F^2 with gradient through the transposed
    residual operator."""
    h = as_matrix(h, "h")
    if a_sym.kind != SYM_KIND:
        raise ShapeMismatch(f"p_reg needs a sym operator, got {a_sym.kind}")
    n = h.shape[0]
    residual = spmm(a_sym, h) - h
    value = lam / n * float(np.sum(residual * residual))
    grad = 2.0 * lam / n * (spmm_t(a_sym, residual) - residual)
    return value, grad


def neighborhood_summary(h, a_rw: NormalizedOperator, hops: int, mode: str = POOL_AVERAGE):
    """Multi-hop neighbor pooling: mean of the 1..T hop propagations in
    ``average_1toT`` mode, or the bare 2-hop propagation in
    ``second_hop_only`` mode (suited to graphs where same-label nodes sit
    two hops apart). Linear in H; zero rows for isolated nodes."""
    h = as_matrix(h, "h")
    if a_rw.kind != RW_KIND:
        raise ShapeMismatch(f"neighborhood_summary needs an rw operator, got {a_rw.kind}")
    if hops < 1:
        raise ShapeMismatch("hops must be >= 1")
    if mode == POOL_SECOND_HOP:
        return spmm(a_rw, spmm(a_rw, h))
    acc = np.zeros_like(h)
    power = h
    for _ in range(hops):
        power = spmm(a_rw, power)
        acc += power
    return acc / hops


def _summary_backward(grad_s, a_rw: NormalizedOperator, hops: int, mode: str):
    """Adjoint of neighborhood_summary: transposed operator powers."""
    if mode == POOL_SECOND_HOP:
        return spmm_t(a_rw, spmm_t(a_rw, grad_s))
    acc = np.zeros_like(grad_s)
    power = grad_s
    for _ in range(hops):
        power = spmm_t(a_rw, power)
        acc += power
    return acc / hops


@dataclass
class _Standardized:
    z: np.ndarray
    mean: np.ndarray
    std: np.ndarray


def _standardize(m: np.ndarray, center: bool) -> _Standardized:
    if center:
        mean = m.mean(axis=0, keepdims=True)
    else:
        mean = np.zeros((1, m.shape[1]))
    centered = m - mean
    std = np.sqrt(np.mean(centered * centered, axis=0, keepdims=True) + CORRELATION_EPS)
    return _Standardized(z=centered / std, mean=mean, std=std)


def _standardize_backward(grad_z: np.ndarray, s: _Standardized, center: bool) -> np.ndarray:
    """Exact gradient through z = (x - mean(x)) / sqrt(var(x) + eps),
    column-wise: (g - mean(g) - z * mean(g .* z)) / std."""
    if center:
        grad_z = grad_z - grad_z.mean(axis=0, keepdims=True)
    return (grad_z - s.z * np.mean(grad_z * s.z, axis=0, keepdims=True)) / s.std


@dataclass(frozen=True)
class CrossCorrelation:
    """D x D cross-correlation of two standardized matrices, with the
    column statistics cached for the backward pass."""

    c: np.ndarray
    _std_h: _Standardized = field(repr=False)
    _std_s: _Standardized = field(repr=False)


def cross_correlation(h, s, center: bool = True) -> CrossCorrelation:
    """C = standardized(H)^T standardized(S) / N; entries are bounded by 1
    in magnitude (up to the eps guard) by Cauchy-Schwarz."""
    h = as_matrix(h, "h")
    s = as_matrix(s, "s")
    if h.shape != s.shape:
        raise ShapeMismatch(f"shape mismatch: h {h.shape} vs s {s.shape}")
    if h.shape[0] < 2:
        raise ShapeMismatch("cross_correlation needs at least 2 rows")
    sh = _standardize(h, center)
    ss = _standardize(s, center)
    c = sh.z.T @ ss.z / h.shape[0]
    return CrossCorrelation(
        c=c,
        _std_h=sh,
        _std_s=ss,
    )


def orthoreg_loss(h, a_rw: NormalizedOperator, spec: RegularizerSpec):
    """-alpha * sum_k C_kk + beta * sum_{k != k'} C_kk'^2 on the
    cross-correlation of H with its neighborhood summary; returns the value
    and the full gradient w.r.t. H (both the direct path and the path
    through S)."""
    if spec.kind != "orthoreg":
        raise ShapeMismatch(f"spec.kind must be 'orthoreg', got {spec.kind!r}")
    h = as_matrix(h, "h")
    n = h.shape[0]
    s = neighborhood_summary(h, a_rw, spec.hops, spec.pooling)
    cc = cross_correlation(h, s, center=spec.center_correlation)
    c = cc.c
    diag = np.diag(c)
    off = c - np.diag(diag)
    value = -spec.alpha * float(diag.sum()) + spec.beta * float(np.sum(off * off))

    grad_c = 2.0 * spec.beta * off
    np.fill_diagonal(grad_c, -spec.alpha)
    zh, zs = cc._std_h, cc._std_s
    grad_zh = zs.z @ grad_c.T / n
    grad_zs = zh.z @ grad_c / n
    grad_h = _standardize_backward(grad_zh, zh, spec.center_correlation)
    grad_s = _standardize_backward(grad_zs, zs, spec.center_correlation)
    grad_h += _summary_backward(grad_s, a_rw, spec.hops, spec.pooling)
    return value, grad_h


def corr_identity_reg(h, lam: float, center: bool = True):
    """lam * sum_{k != k'} C_kk'^2 on the auto-correlation of H (the
    distance to the identity, since the diagonal is pinned at ~1)."""
    h = as_matrix(h, "h")
    if h.shape[0] < 2:
        raise ShapeMismatch("corr_identity_reg needs at least 2 rows")
    n = h.shape[0]
    sh = _standardize(h, center)
    c = sh.z.T @ sh.z / n
    off = c - np.diag(np.diag(c))
    value = lam * float(np.sum(off * off))
    grad_c = 2.0 * lam * off
    # H appears on both sides of C = Z^T Z / N
    grad_z = sh.z @ (grad_c + grad_c.T) / n
    grad_h = _standardize_backward(grad_z, sh, center)
    return value, grad_h


def regularizer_value_grad(h, spec: RegularizerSpec, operators: dict):
    """Dispatch on spec.kind; ``operators`` maps kind names ('laplacian',
    'sym', 'rw') to prebuilt NormalizedOperators."""
    if spec.kind == "none":
        return 0.0, None
    if spec.kind == "laplacian":
        return laplacian_reg(h, operators["laplacian"], spec.lam)
    if spec.kind == "preg":
        return p_reg(h, operators["sym"], spec.lam)
    if spec.kind == "corr_identity":
        return corr_identity_reg(h, spec.lam, center=spec.center_correlation)
    if spec.kind == "orthoreg":
        return orthoreg_loss(h, operators["rw"], spec)
    raise ConfigError(f"unknown regularizer kind: {spec.kind!r}")
