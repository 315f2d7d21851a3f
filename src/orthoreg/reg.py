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

REGULARIZERS holds one row per kind: the normalized operator it reads
(``None`` for none and corr_identity), which is the one training builds,
each setting it reads with its default, and its ``value_grad``.

Correlations standardize each column (see tensor.centered_columns), but
no standardized N x D copy is formed: from the centered columns Hc, Sc
and their scales std_h, std_s, C = Hc^T Sc / (N std_h std_s^T). The
backward pass folds the scaling into the D x D matrix
M = grad_c / (N std_h std_s^T), so dC/dH is
Sc M^T - Hc * diag(C grad_c^T) / (N std_h^2): the standardization's
mean_i(g * z) term is diag(C grad_c^T) / N, and its mean(g) term vanishes
because Sc's columns sum to zero. dC/dS is
Hc M - Sc * diag(C^T grad_c) / (N std_s^2), so both halves share M and
C * grad_c: the row sums of the latter weight Hc, its column sums Sc.
For the cross term the gradient also chains through S's linear dependence
on H via transposed operator products.

Buffers: no caller's H or S is written. The CrossCorrelation owns C, its
centered copies Hc and Sc and the divisor N std_h std_s^T, which
``cross_correlation`` forms once. ``_backward`` consumes all four: M
overwrites the divisor and C * grad_c overwrites C, and once its two GEMMs
are formed, each diagonal correction is written into the spent Hc (and
Sc) buffer. The losses form grad_c in one copy of C. ``orthoreg_loss``
drops the CrossCorrelation before the adjoint pooling, so Hc and Sc are
freed before it allocates; the adjoint multiplies by the operator's kept
CSR of its transpose (graphio.NormalizedOperator.transposed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ShapeMismatch, check_range, check_ranges
from .graphio import LAPLACIAN_KIND, NormalizedOperator, RW_KIND, SYM_KIND
from .tensor import as_matrix, centered_columns, spmm, spmm_t

POOL_AVERAGE = "average_1toT"
POOL_SECOND_HOP = "second_hop_only"


@dataclass(frozen=True)
class Regularizer:
    """One regularizer kind: the normalized operator it reads (graphio's
    kind names, or None), each setting it reads with its default (None:
    a run must give it), and ``value_grad(h, op, spec)``, which looks its
    function up in this module at call time, so a wrapper set on, say,
    ``reg.orthoreg_loss`` (perfbench/tracer.py) sees every call."""

    operator: str | None
    settings: dict
    value_grad: Callable


REGULARIZERS = {
    "none": Regularizer(None, {}, lambda h, op, spec: (0.0, None)),
    "laplacian": Regularizer(LAPLACIAN_KIND, {"lam": 0.1},
                             lambda h, op, spec: laplacian_reg(h, op, spec.lam)),
    "preg": Regularizer(SYM_KIND, {"lam": None}, lambda h, op, spec: p_reg(h, op, spec.lam)),
    "corr_identity": Regularizer(None, {"lam": None},
                                 lambda h, op, spec: corr_identity_reg(h, spec.lam)),
    "orthoreg": Regularizer(RW_KIND, {"alpha": 1e-3, "beta": 1e-6, "hops": 2,
                                      "pooling": POOL_AVERAGE},
                            lambda h, op, spec: orthoreg_loss(h, op, spec)),
}


@dataclass(frozen=True)
class RegularizerSpec:
    """Which regularizer to train with, and its settings: the kind's
    REGULARIZERS row names the ones it reads, and no other field is read."""

    kind: str = "none"
    lam: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    hops: int = 2
    pooling: str = POOL_AVERAGE

    def __post_init__(self):
        if self.kind not in REGULARIZERS:
            raise ConfigError(f"unknown regularizer kind: {self.kind!r}")
        check_ranges(vars(self))
        _check_pooling(self.hops, self.pooling)

    def settings(self) -> dict:
        """The kind and the values of the settings its row reads: a run's record."""
        return {"kind": self.kind} | {s: getattr(self, s) for s in REGULARIZERS[self.kind].settings}


def _check_pooling(hops: int, mode: str) -> None:
    """Reject a hop count below 1 or an unknown pooling mode, naming it."""
    check_range("hops", hops)
    if mode not in (POOL_AVERAGE, POOL_SECOND_HOP):
        raise ConfigError(f"unknown pooling mode: {mode!r}")


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
    two hops apart). Linear in H; zero rows for isolated nodes. A hop
    count below 1 or an unknown mode is a ConfigError."""
    _check_pooling(hops, mode)
    h = as_matrix(h, "h")
    if a_rw.kind != RW_KIND:
        raise ShapeMismatch(f"neighborhood_summary needs an rw operator, got {a_rw.kind}")
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
    with the centered columns, their scales and the divisor
    N std_h std_s^T kept for the backward pass, which consumes C, the
    centered columns and the divisor."""

    c: np.ndarray
    _hc: np.ndarray = field(repr=False)
    _sc: np.ndarray = field(repr=False)
    _std_h: np.ndarray = field(repr=False)
    _std_s: np.ndarray = field(repr=False)
    _divisor: np.ndarray = field(repr=False)


def cross_correlation(h, s) -> CrossCorrelation:
    """C = Hc^T Sc / (N std_h std_s^T) on the centered columns; entries are
    bounded by 1 in magnitude (up to the eps guard) by Cauchy-Schwarz."""
    h = as_matrix(h, "h")
    s = as_matrix(s, "s")
    if h.shape != s.shape:
        raise ShapeMismatch(f"shape mismatch: h {h.shape} vs s {s.shape}")
    if h.shape[0] < 2:
        raise ShapeMismatch("cross_correlation needs at least 2 rows")
    hc, std_h = centered_columns(h)
    sc, std_s = (hc, std_h) if s is h else centered_columns(s)
    c = hc.T @ sc
    divisor = np.outer(std_h, std_s)
    divisor *= h.shape[0]
    c /= divisor
    return CrossCorrelation(c, hc, sc, std_h, std_s, divisor)


def _backward(cc: CrossCorrelation, grad_c: np.ndarray):
    """Gradients of sum(grad_c * C) with respect to h and to s:
    Sc M^T - Hc * rowsum(C * grad_c) / (N std_h^2) and
    Hc M - Sc * colsum(C * grad_c) / (N std_s^2), where
    M = grad_c / (N std_h std_s^T). For an auto-correlation (s is h) only
    the first is formed, and the s half is None: the caller folds both
    halves into grad_c.

    ``cc`` is consumed: M overwrites the divisor, C * grad_c overwrites C,
    and after both GEMMs the corrections overwrite the centered buffers,
    so it must not be read again. ``grad_c`` is only read."""
    n = cc._hc.shape[0]
    m = np.divide(grad_c, cc._divisor, out=cc._divisor)
    weighted = np.multiply(cc.c, grad_c, out=cc.c)
    grad_h = cc._sc @ m.T
    auto = cc._sc is cc._hc
    grad_s = None if auto else cc._hc @ m
    grad_h -= np.multiply(cc._hc, weighted.sum(axis=1) / (n * cc._std_h**2), out=cc._hc)
    if not auto:
        grad_s -= np.multiply(cc._sc, weighted.sum(axis=0) / (n * cc._std_s**2), out=cc._sc)
    return grad_h, grad_s


def _off_diagonal_penalty(c: np.ndarray, weight: float):
    """weight * sum_{k != k'} C_kk'^2 and its gradient 2 weight C_off (zero
    diagonal), formed in one copy of C and one square."""
    grad_c = c.copy()
    np.fill_diagonal(grad_c, 0.0)
    value = weight * float(np.sum(grad_c * grad_c))
    grad_c *= 2.0 * weight
    return value, grad_c


def orthoreg_loss(h, a_rw: NormalizedOperator, spec: RegularizerSpec):
    """-alpha * sum_k C_kk + beta * sum_{k != k'} C_kk'^2 on the
    cross-correlation of H with its neighborhood summary; returns the value
    and the full gradient w.r.t. H (both the direct path and the path
    through S)."""
    if spec.kind != "orthoreg":
        raise ShapeMismatch(f"spec.kind must be 'orthoreg', got {spec.kind!r}")
    # neighborhood_summary and cross_correlation check h themselves; S is
    # not kept, because the backward pass reads only its centered copy
    cc = cross_correlation(h, neighborhood_summary(h, a_rw, spec.hops, spec.pooling))
    penalty, grad_c = _off_diagonal_penalty(cc.c, spec.beta)
    value = -spec.alpha * float(np.diag(cc.c).sum()) + penalty
    np.fill_diagonal(grad_c, -spec.alpha)
    grad_h, grad_s = _backward(cc, grad_c)
    del cc  # frees the spent Hc and Sc before the adjoint pooling allocates
    grad_h += _pool(spmm_t, grad_s, a_rw, spec.hops, spec.pooling)
    return value, grad_h


def corr_identity_reg(h, lam: float):
    """lam * sum_{k != k'} C_kk'^2 on the auto-correlation of H (the
    distance to the identity, since the diagonal is pinned at ~1)."""
    cc = cross_correlation(h, h)
    value, grad_c = _off_diagonal_penalty(cc.c, lam)
    # H fills both slots of the symmetric C, so the two halves of the
    # gradient add up on the D x D side, to one product with Hc
    return value, _backward(cc, grad_c + grad_c.T)[0]


def regularizer_value_grad(h, spec: RegularizerSpec, operators: dict):
    """spec.kind's REGULARIZERS row on H; ``operators`` maps normalization
    kinds ('laplacian', 'sym', 'rw') to prebuilt NormalizedOperators and
    holds at least the row's operator."""
    row = REGULARIZERS[spec.kind]
    return row.value_grad(h, operators[row.operator] if row.operator else None, spec)
