"""Dense numerical kernels: covariance, the centered correlation, symmetric
eigendecomposition, singular values, and the normalized eigenvalue sum
(NESum) collapse metric.

Matrices are plain 2-D float64 ``numpy.ndarray`` objects throughout the
package; every public operation validates shape and finiteness at its
boundary, except ``spmm`` and ``spmm_t``, which check shapes only (a
blow-up reaches train()'s Divergence check). Every eigendecomposition
goes to LAPACK (``numpy.linalg.eigh``/``eigvalsh``) after a symmetry
check, and is returned in non-ascending order; singular values come from
LAPACK's SVD. An independent cyclic Jacobi eigensolver under ``tests/``
is the reference these routines are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric, ShapeMismatch

SYM_TOL = 1e-10
CORRELATION_EPS = 1e-8
NESUM_EPS = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return m


def _check_rows(op, m: np.ndarray) -> None:
    if op.n_nodes != m.shape[0]:
        raise ShapeMismatch(f"operator acts on {op.n_nodes} nodes but matrix has {m.shape[0]} rows")


def spmm(op, m: np.ndarray) -> np.ndarray:
    """Sparse-dense product ``op @ m`` for a normalized graph operator
    (:class:`orthoreg.graphio.NormalizedOperator`) and a 2-D float64 array
    with one row per node; only the row count is checked."""
    _check_rows(op, m)
    return op.matrix @ m


def spmm_t(op, m: np.ndarray) -> np.ndarray:
    """Product with the transposed operator, ``op.T @ m`` (backward passes),
    through the operator's kept CSR of its transpose; checked as spmm."""
    _check_rows(op, m)
    return op.transposed @ m


def covariance(h) -> np.ndarray:
    """Column covariance of the rows of ``h`` with divisor N (not N-1)."""
    h = as_matrix(h, "h")
    centered = h - h.mean(axis=0, keepdims=True)
    sig = centered.T @ centered / h.shape[0]
    return (sig + sig.T) / 2.0


def centered_columns(m: np.ndarray):
    """The columns of ``m`` less their means, and their scales
    sqrt(mean(column^2) + CORRELATION_EPS). The eps guard keeps a constant
    column's correlations finite (its row and column go to ~zero instead of
    0/0)."""
    # the mean as m.mean(axis=0) forms it, without its Python-level wrapper
    mc = m - np.add.reduce(m, axis=0) / m.shape[0]
    return mc, np.sqrt(np.einsum("ij,ij->j", mc, mc) / m.shape[0] + CORRELATION_EPS)


def correlation(h) -> np.ndarray:
    """Column correlation matrix C = Hc^T Hc / (N std std^T) on the centered
    columns Hc and their scales std (see centered_columns)."""
    h = as_matrix(h, "h")
    if h.shape[0] < 2:
        raise ShapeMismatch("correlation needs at least 2 rows")
    hc, std = centered_columns(h)
    c = hc.T @ hc
    c /= np.outer(std, std) * h.shape[0]
    return c


def _check_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"{name} is not square: {m.shape}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if float(np.abs(m - m.T).max(initial=0.0)) > SYM_TOL * scale:
        raise NotSymmetric(f"{name} is not symmetric within {SYM_TOL:g}")
    return (m + m.T) / 2.0


def sym_eigvals(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted non-ascending."""
    a = _check_symmetric(as_matrix(m, "m"), "m")
    return np.linalg.eigvalsh(a)[::-1].copy()


def sym_eig(m):
    """(values, vectors) of a symmetric matrix, values non-ascending and
    eigenvector columns aligned."""
    a = _check_symmetric(as_matrix(m, "m"), "m")
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def singular_values(w) -> np.ndarray:
    """Singular values of W, non-ascending, one per column (a wide W ends
    in zeros, as sqrt(eig(W^T W)) would). Taken from the SVD of W itself:
    forming W^T W squares the condition number and loses the small
    singular values that the collapse checks compare."""
    w = as_matrix(w, "w")
    sv = np.linalg.svd(w, compute_uv=False)
    return np.concatenate([sv, np.zeros(w.shape[1] - sv.size)])


def nesum(eigenvalues) -> float:
    """Normalized eigenvalue sum: sum(lambda_i) / max(lambda_1, NESUM_EPS).

    Input must be non-empty and sorted non-ascending; low values flag a
    spectrum dominated by its top eigenvalue.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64).ravel()
    if lam.size == 0:
        raise ShapeMismatch("nesum needs a non-empty eigenvalue array")
    scale = max(1.0, float(np.abs(lam).max()))
    if np.any(np.diff(lam) > 1e-12 * scale):
        raise ShapeMismatch("eigenvalues must be sorted non-ascending")
    return float(lam.sum() / max(lam[0], NESUM_EPS))


@dataclass(frozen=True)
class EigenReport:
    """Sorted correlation-matrix eigenvalues plus NESum."""

    eigenvalues: np.ndarray
    nesum: float

    def ratio(self, i: int) -> float:
        """lambda_i / lambda_1 with 1-based index i."""
        lam = self.eigenvalues
        return float(lam[i - 1] / max(lam[0], NESUM_EPS))


def eigen_report(h) -> EigenReport:
    """Eigen report of the column correlation matrix of ``h``."""
    lam = sym_eigvals(correlation(h))
    return EigenReport(eigenvalues=lam, nesum=nesum(lam))
