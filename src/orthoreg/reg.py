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

REG_STRENGTHS lists the strengths each kind reads, and REG_OPERATORS the
normalized operator it reads (``None`` for none and corr_identity);
training builds just that operator.

Correlations standardize each column (subtract mean, divide by
sqrt(variance + CORRELATION_EPS)), but no standardized N x D copy is
formed: from the centered columns Hc, Sc and their scales std_h, std_s,
C = Hc^T Sc / (N std_h std_s^T). The backward pass folds the scaling into
the D x D matrix M = grad_c / (N std_h std_s^T), so dC/dH is
Sc M^T - Hc * diag(C grad_c^T) / (N std_h^2): the standardization's
mean_i(g * z) term is diag(C grad_c^T) / N, and its mean(g) term
(centered correlations only) vanishes because Sc's columns sum to zero.
dC/dS is Hc M - Sc * diag(C^T grad_c) / (N std_s^2), so both halves share
M and C * grad_c: the row sums of the latter weight Hc, its column sums Sc.
For the cross term the gradient also chains through S's linear dependence
on H via transposed operator products.
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
# the normalized operator each kind reads (graphio's kind names), if any
REG_OPERATORS = {
    "none": None,
    "laplacian": LAPLACIAN_KIND,
    "preg": SYM_KIND,
    "corr_identity": None,
    "orthoreg": RW_KIND,
}


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
    return _pool(spmm, h, a_rw, hops, mode)


def _pool(product, m, a_rw: NormalizedOperator, hops: int, mode: str):
    """The pooling of neighborhood_summary with ``product`` as the operator
    product: ``spmm`` for the summary, ``spmm_t`` for its adjoint. Callers
    pass this module's name, read at call time, so a wrapper set on
    ``reg.spmm`` or ``reg.spmm_t`` (perfbench/tracer.py) sees every product."""
    if mode == POOL_SECOND_HOP:
        return product(a_rw, product(a_rw, m))
    acc = power = product(a_rw, m)
    for _ in range(hops - 1):
        power = product(a_rw, power)
        acc += power
    acc /= hops
    return acc


@dataclass(frozen=True)
class CrossCorrelation:
    """D x D cross-correlation of the standardized columns of two matrices,
    with the centered columns and their scales kept for the backward pass."""

    c: np.ndarray
    _hc: np.ndarray = field(repr=False)
    _sc: np.ndarray = field(repr=False)
    _std_h: np.ndarray = field(repr=False)
    _std_s: np.ndarray = field(repr=False)

    def _scale(self) -> np.ndarray:
        """N std_h std_s^T, the D x D divisor of the correlation."""
        scale = np.outer(self._std_h, self._std_s)
        scale *= self._hc.shape[0]
        return scale


def _centered(m: np.ndarray, center: bool):
    """The columns of ``m`` less their means (``m`` itself uncentered) and
    their scales sqrt(mean(column^2) + CORRELATION_EPS)."""
    mc = m - m.mean(axis=0) if center else m
    return mc, np.sqrt(np.einsum("ij,ij->j", mc, mc) / m.shape[0] + CORRELATION_EPS)


def cross_correlation(h, s, center: bool = True) -> CrossCorrelation:
    """C = Hc^T Sc / (N std_h std_s^T) on the centered columns; entries are
    bounded by 1 in magnitude (up to the eps guard) by Cauchy-Schwarz."""
    h = as_matrix(h, "h")
    s = as_matrix(s, "s")
    if h.shape != s.shape:
        raise ShapeMismatch(f"shape mismatch: h {h.shape} vs s {s.shape}")
    if h.shape[0] < 2:
        raise ShapeMismatch("cross_correlation needs at least 2 rows")
    hc, std_h = _centered(h, center)
    sc, std_s = (hc, std_h) if s is h else _centered(s, center)
    c = hc.T @ sc
    cc = CrossCorrelation(c, hc, sc, std_h, std_s)
    c /= cc._scale()
    return cc


def _backward(cc: CrossCorrelation, grad_c: np.ndarray):
    """Gradients of sum(grad_c * C) with respect to h and to s:
    Sc M^T - Hc * rowsum(C * grad_c) / (N std_h^2) and
    Hc M - Sc * colsum(C * grad_c) / (N std_s^2), where
    M = grad_c / (N std_h std_s^T). For an auto-correlation (s is h) only
    the first is formed, and the s half is None: the caller folds both
    halves into grad_c."""
    n = cc._hc.shape[0]
    m = cc._scale()
    np.divide(grad_c, m, out=m)
    weighted = cc.c * grad_c
    grad_h = cc._sc @ m.T
    grad_h -= cc._hc * (weighted.sum(axis=1) / (n * cc._std_h**2))
    if cc._sc is cc._hc:
        return grad_h, None
    grad_s = cc._hc @ m
    grad_s -= cc._sc * (weighted.sum(axis=0) / (n * cc._std_s**2))
    return grad_h, grad_s


def orthoreg_loss(h, a_rw: NormalizedOperator, spec: RegularizerSpec):
    """-alpha * sum_k C_kk + beta * sum_{k != k'} C_kk'^2 on the
    cross-correlation of H with its neighborhood summary; returns the value
    and the full gradient w.r.t. H (both the direct path and the path
    through S)."""
    if spec.kind != "orthoreg":
        raise ShapeMismatch(f"spec.kind must be 'orthoreg', got {spec.kind!r}")
    h = as_matrix(h, "h")
    # S itself is not kept: the backward pass reads only its centered copy
    cc = cross_correlation(h, neighborhood_summary(h, a_rw, spec.hops, spec.pooling),
                           center=spec.center_correlation)
    c = cc.c
    diag = np.diag(c)
    off = c - np.diag(diag)
    value = -spec.alpha * float(diag.sum()) + spec.beta * float(np.sum(off * off))

    grad_c = 2.0 * spec.beta * off
    np.fill_diagonal(grad_c, -spec.alpha)
    grad_h, grad_s = _backward(cc, grad_c)
    grad_h += _pool(spmm_t, grad_s, a_rw, spec.hops, spec.pooling)
    return value, grad_h


def corr_identity_reg(h, lam: float, center: bool = True):
    """lam * sum_{k != k'} C_kk'^2 on the auto-correlation of H (the
    distance to the identity, since the diagonal is pinned at ~1)."""
    cc = cross_correlation(h, h, center=center)
    off = cc.c - np.diag(np.diag(cc.c))
    value = lam * float(np.sum(off * off))
    grad_c = 2.0 * lam * off
    # H fills both slots of the symmetric C, so the two halves of the
    # gradient add up on the D x D side, to one product with Hc
    return value, _backward(cc, grad_c + grad_c.T)[0]


def regularizer_value_grad(h, spec: RegularizerSpec, operators: dict):
    """Dispatch on spec.kind; ``operators`` maps normalization kinds
    ('laplacian', 'sym', 'rw') to prebuilt NormalizedOperators and holds at
    least the one REG_OPERATORS names for spec.kind."""
    if spec.kind == "none":
        return 0.0, None
    if spec.kind == "corr_identity":
        return corr_identity_reg(h, spec.lam, center=spec.center_correlation)
    op = operators[REG_OPERATORS[spec.kind]]
    if spec.kind == "laplacian":
        return laplacian_reg(h, op, spec.lam)
    if spec.kind == "preg":
        return p_reg(h, op, spec.lam)
    return orthoreg_loss(h, op, spec)
