"""Reference correlation regularizers for the tests: the standardized-copy
route.

The package computes the cross-correlation from centered columns and D x D
statistics and never forms a standardized matrix. This module is the
straightforward route those results are compared against: it standardizes
each column, Z = (X - mean(X)) / sqrt(mean((X - mean(X))^2) + eps), takes
C = Z_h^T Z_s / N, and chains the gradient through the standardization
column by column, (g - mean(g) - Z * mean(g * Z)) / std. The neighborhood
summary is the plain sum of operator powers on the operator's matrix.
"""

import numpy as np

from orthoreg.reg import POOL_SECOND_HOP
from orthoreg.tensor import CORRELATION_EPS


def standardize(m):
    """(Z, std) of the columns of ``m``."""
    centered = m - m.mean(axis=0, keepdims=True)
    std = np.sqrt(np.mean(centered * centered, axis=0, keepdims=True) + CORRELATION_EPS)
    return centered / std, std


def standardize_backward(grad_z, z, std):
    grad_z = grad_z - grad_z.mean(axis=0, keepdims=True)
    return (grad_z - z * np.mean(grad_z * z, axis=0, keepdims=True)) / std


def cross_correlation(h, s):
    """C and a function mapping grad_c to (grad_h, grad_s)."""
    n = h.shape[0]
    zh, std_h = standardize(h)
    zs, std_s = standardize(s)

    def backward(grad_c):
        return (standardize_backward(zs @ grad_c.T / n, zh, std_h),
                standardize_backward(zh @ grad_c / n, zs, std_s))

    return zh.T @ zs / n, backward


def summary(h, a_rw, hops, mode, transpose=False):
    """Neighborhood summary of ``h``, or its adjoint with ``transpose``."""
    a = a_rw.matrix.T if transpose else a_rw.matrix
    if mode == POOL_SECOND_HOP:
        return a @ (a @ h)
    acc = np.zeros_like(h)
    power = h
    for _ in range(hops):
        power = a @ power
        acc += power
    return acc / hops


def orthoreg_loss(h, a_rw, spec):
    s = summary(h, a_rw, spec.hops, spec.pooling)
    c, backward = cross_correlation(h, s)
    diag = np.diag(c)
    off = c - np.diag(diag)
    value = -spec.alpha * float(diag.sum()) + spec.beta * float(np.sum(off * off))
    grad_c = 2.0 * spec.beta * off
    np.fill_diagonal(grad_c, -spec.alpha)
    grad_h, grad_s = backward(grad_c)
    return value, grad_h + summary(grad_s, a_rw, spec.hops, spec.pooling, transpose=True)


def corr_identity_reg(h, lam):
    n = h.shape[0]
    z, std = standardize(h)
    c = z.T @ z / n
    off = c - np.diag(np.diag(c))
    grad_c = 2.0 * lam * off
    # H appears on both sides of C = Z^T Z / N
    grad_z = z @ (grad_c + grad_c.T) / n
    return lam * float(np.sum(off * off)), standardize_backward(grad_z, z, std)
