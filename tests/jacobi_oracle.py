"""Reference symmetric eigensolver for the tests: cyclic Jacobi rotations.

The package computes every eigendecomposition with LAPACK. This module is
the independent check those results are compared against: Jacobi
rotations reach each eigenvalue to high relative accuracy (Demmel and
Veselic, "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal.
Appl. 1992), and share no code with LAPACK's tridiagonal reduction.

The ordering is round-robin (parallel): each round rotates a set of
disjoint index pairs, which keeps the schedule deterministic and lets the
updates vectorize.
"""

import numpy as np

OFF_TOL = 1e-12
MAX_SWEEPS = 100


def _round_robin_rounds(n: int):
    """Round-robin schedule: n-1 rounds of disjoint index pairs covering
    every unordered pair exactly once (circle method; odd n gets a bye)."""
    m = n + (n % 2)
    others = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        lineup = [0] + others
        p = np.array(lineup[: m // 2], dtype=np.intp)
        q = np.array(lineup[m // 2:][::-1], dtype=np.intp)
        keep = (p < n) & (q < n)
        lo = np.minimum(p[keep], q[keep])
        hi = np.maximum(p[keep], q[keep])
        rounds.append((lo, hi))
        others = others[-1:] + others[:-1]
    return rounds


def jacobi_eigh(m):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(values, vectors)`` with values sorted non-ascending and
    eigenvector columns aligned. Converged when the off-diagonal Frobenius
    norm is below ``OFF_TOL`` relative to the input's; raises
    ``RuntimeError`` after ``MAX_SWEEPS`` sweeps without convergence.
    """
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    v = np.eye(n)
    fro = float(np.linalg.norm(a))
    if n == 1 or fro == 0.0:
        return np.diag(a).copy(), v
    target = OFF_TOL * fro
    rounds = _round_robin_rounds(n)

    for _ in range(MAX_SWEEPS):
        # measure the off-diagonal norm directly; the sum(a^2)-sum(diag^2)
        # shortcut cancels catastrophically near convergence
        od = a.copy()
        np.fill_diagonal(od, 0.0)
        if float(np.linalg.norm(od)) <= target:
            break
        for p, q in rounds:
            apq = a[p, q]
            active = np.abs(apq) > 0.0
            if not np.any(active):
                continue
            app = a[p, p]
            aqq = a[q, q]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                tau = (aqq - app) / (2.0 * apq)
                root = np.sqrt(1.0 + tau * tau)
                t = np.where(tau >= 0.0, 1.0 / (tau + root), 1.0 / (tau - root))
            t = np.where(active, t, 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # pairs within a round are disjoint, so batched row/column
            # rotations compose exactly
            rp = c[:, None] * a[p, :] - s[:, None] * a[q, :]
            rq = s[:, None] * a[p, :] + c[:, None] * a[q, :]
            a[p, :] = rp
            a[q, :] = rq
            cp = c[None, :] * a[:, p] - s[None, :] * a[:, q]
            cq = s[None, :] * a[:, p] + c[None, :] * a[:, q]
            a[:, p] = cp
            a[:, q] = cq
            a[p, q] = 0.0
            a[q, p] = 0.0
            vp = c[None, :] * v[:, p] - s[None, :] * v[:, q]
            vq = s[None, :] * v[:, p] + c[None, :] * v[:, q]
            v[:, p] = vp
            v[:, q] = vq
    else:
        raise RuntimeError(
            f"Jacobi iteration did not reach off-diagonal norm {target:g} "
            f"in {MAX_SWEEPS} sweeps"
        )

    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]
