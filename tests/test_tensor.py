import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from jacobi_oracle import jacobi_eigh
from orthoreg import tensor
from orthoreg.errors import NotSymmetric, ShapeMismatch
from orthoreg.graphio import NormalizedOperator, graph_from_edges, normalize
from orthoreg.reg import cross_correlation
from orthoreg.tensor import (
    EigenReport,
    centered_columns,
    correlation,
    covariance,
    eigen_report,
    nesum,
    singular_values,
    spmm,
    spmm_t,
    sym_eig,
    sym_eigvals,
)


def _operator(matrix) -> NormalizedOperator:
    csr = sp.csr_matrix(matrix)
    return NormalizedOperator(kind="sym", n_nodes=csr.shape[0], matrix=csr)


class TestSpmm:
    def test_identity_diagonal(self, rng):
        m = rng.standard_normal((5, 3))
        op = _operator(np.eye(5))
        np.testing.assert_array_equal(spmm(op, m), m)

    def test_zero_operator(self, rng):
        m = rng.standard_normal((4, 2))
        op = _operator(np.zeros((4, 4)))
        np.testing.assert_array_equal(spmm(op, m), np.zeros((4, 2)))

    def test_matches_densified_product(self, rng):
        dense = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.3)
        m = rng.standard_normal((6, 4))
        got = spmm(_operator(dense), m)
        np.testing.assert_allclose(got, dense @ m, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            spmm(_operator(np.eye(4)), rng.standard_normal((5, 2)))


class TestSpmmT:
    @pytest.mark.parametrize("width", [1, 8, 64])
    @pytest.mark.parametrize("kind", ["rw", "sym", "laplacian"])
    def test_kept_transpose_matches_product_with_matrix_t_byte_for_byte(self, rng, kind,
                                                                         width):
        # nodes 7 and 8 are isolated: empty rows and columns, and identity
        # rows in the laplacian
        g = graph_from_edges(9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                                 (6, 0), (1, 5)])
        op = normalize(g, kind)
        m = rng.standard_normal((9, width))
        assert spmm_t(op, m).tobytes() == (op.matrix.T @ m).tobytes()

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            spmm_t(_operator(np.eye(4)), rng.standard_normal((5, 2)))


class TestGraphProductsCheckShapesOnly:
    @pytest.mark.parametrize("product", [spmm, spmm_t])
    def test_no_finiteness_scan_and_a_blow_up_propagates(self, rng, monkeypatch, product):
        calls = []
        monkeypatch.setattr(tensor, "as_matrix", lambda *a, **k: calls.append(a))
        op = normalize(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]), "rw")
        m = rng.standard_normal((4, 3))
        m[1, 2] = np.inf
        out = product(op, m)
        assert calls == []
        assert np.isinf(out[:, 2]).any() and np.isfinite(out[:, :2]).all()


class TestCovariance:
    def test_single_row_is_zero(self):
        np.testing.assert_array_equal(covariance([[3.0, -1.0]]), np.zeros((2, 2)))

    def test_hand_computed_two_rows(self):
        got = covariance([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(got, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_matches_pairwise_double_loop(self, rng):
        h = rng.standard_normal((7, 3))
        mean = h.mean(axis=0)
        expected = np.zeros((3, 3))
        for k in range(3):
            for kp in range(3):
                acc = 0.0
                for i in range(7):
                    acc += (h[i, k] - mean[k]) * (h[i, kp] - mean[kp])
                expected[k, kp] = acc / 7
        np.testing.assert_allclose(covariance(h), expected, atol=1e-12)

    def test_positive_semidefinite(self, rng):
        for _ in range(5):
            h = rng.standard_normal((9, 4))
            assert sym_eigvals(covariance(h))[-1] >= -1e-9


class TestCorrelation:
    def test_identical_columns_are_fully_correlated(self, rng):
        col = rng.standard_normal(10)
        c = correlation(np.column_stack([col, col]))
        np.testing.assert_allclose(c, np.ones((2, 2)), atol=1e-6)

    def test_orthogonal_zero_mean_columns_give_identity(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        np.testing.assert_allclose(correlation(h), np.eye(2), atol=1e-6)

    def test_matches_entrywise_formula(self, rng):
        h = rng.standard_normal((10, 4))
        eps = 1e-8
        sig = covariance(h)
        expected = np.empty((4, 4))
        for k in range(4):
            for kp in range(4):
                expected[k, kp] = sig[k, kp] / np.sqrt((sig[k, k] + eps) * (sig[kp, kp] + eps))
        np.testing.assert_allclose(correlation(h), expected, atol=1e-12)

    def test_unit_diagonal_when_variance_dominates_eps(self, rng):
        h = rng.standard_normal((30, 5)) * 3.0
        assert np.abs(np.diag(correlation(h)) - 1.0).max() < 1e-6

    def test_constant_column_guarded(self):
        h = np.column_stack([np.ones(6), np.arange(6.0)])
        c = correlation(h)
        assert np.all(np.isfinite(c))
        assert abs(c[0, 1]) < 1e-3

    @pytest.mark.parametrize("shape", [(10, 4), (7, 12), (40, 1)])
    def test_is_the_regularizers_auto_correlation_bit_for_bit(self, rng, shape):
        h = rng.standard_normal(shape)
        np.testing.assert_array_equal(correlation(h), cross_correlation(h, h).c)

    def test_one_row_rejected(self):
        with pytest.raises(ShapeMismatch, match="2 rows"):
            correlation(np.ones((1, 3)))


class TestCenteredColumns:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m=st.tuples(st.integers(1, 40), st.integers(1, 9)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(
            -1e6, 1e6, allow_nan=False, allow_infinity=False))))
    def test_centers_as_numpy_mean_does_byte_for_byte(self, m):
        mc, _ = centered_columns(m)
        assert mc.tobytes() == (m - m.mean(axis=0)).tobytes()


class TestSymEigvals:
    def test_diagonal(self):
        np.testing.assert_allclose(sym_eigvals(np.diag([3.0, 1.0])), [3.0, 1.0])

    def test_two_by_two_closed_form(self):
        np.testing.assert_allclose(
            sym_eigvals([[2.0, 1.0], [1.0, 2.0]]), [3.0, 1.0], atol=1e-12
        )

    def test_trace_and_determinant_consistency(self, rng):
        m = rng.standard_normal((5, 5))
        m = (m + m.T) / 2
        vals = sym_eigvals(m)
        fro = np.linalg.norm(m)
        assert abs(vals.sum() - np.trace(m)) < 1e-9 * fro
        assert abs(np.prod(vals) - np.linalg.det(m)) < 1e-9 * max(1.0, abs(np.linalg.det(m)))

    def test_eigensum_matches_trace_across_sizes(self, rng):
        for n in (3, 8, 20, 40):
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            vals = sym_eigvals(m)
            assert abs(vals.sum() - np.trace(m)) < 1e-9 * np.linalg.norm(m)

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(NotSymmetric):
            sym_eigvals(rng.standard_normal((4, 4)))

    def test_rejects_rectangular(self, rng):
        with pytest.raises(NotSymmetric):
            sym_eigvals(rng.standard_normal((3, 4)))


def _random_symmetric(n: int, seed: int) -> np.ndarray:
    m = np.random.default_rng(seed).standard_normal((n, n))
    return (m + m.T) / 2


def _orthogonal(n: int, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q


SYMMETRIC_CASES = {
    "n1": lambda: np.array([[-2.5]]),
    "zero": lambda: np.zeros((5, 5)),
    "repeated": lambda: (_orthogonal(6, 3) * [3.0, 3.0, 3.0, 1.0, 1.0, -2.0])
    @ _orthogonal(6, 3).T,
    "n120": lambda: _random_symmetric(120, 4),
    "n150": lambda: _random_symmetric(150, 5),
}

SINGULAR_CASES = {
    "square": lambda: np.random.default_rng(6).standard_normal((16, 16)),
    # condition 1e9: sqrt(eig(W^T W)) loses the smallest values entirely
    "ill_conditioned": lambda: (_orthogonal(16, 7) * np.logspace(0.0, -9.0, 16))
    @ _orthogonal(16, 8).T,
    "tall": lambda: np.random.default_rng(9).standard_normal((30, 5)),
    "wide": lambda: np.random.default_rng(10).standard_normal((4, 6)),
    "zero": lambda: np.zeros((3, 3)),
}


def _oracle_singular_values(w: np.ndarray) -> np.ndarray:
    """Singular values from the Jacobi eigenvalues of [[0, W], [W^T, 0]]
    (which are +-sigma_i and zeros), one per column of W."""
    rows, cols = w.shape
    aug = np.block([[np.zeros((rows, rows)), w], [w.T, np.zeros((cols, cols))]])
    vals, _ = jacobi_eigh(aug)
    k = min(rows, cols)
    return np.concatenate([np.clip(vals[:k], 0.0, None), np.zeros(cols - k)])


def _eigenspace_projectors(vals, vecs, tol):
    """Orthogonal projector onto each eigenspace, eigenvalues within tol
    of their neighbour grouped together (repeated eigenvalues leave the
    basis free, the projector is not)."""
    cuts = np.flatnonzero(np.abs(np.diff(vals)) > tol) + 1
    return [vecs[:, g] @ vecs[:, g].T for g in np.split(np.arange(vals.size), cuts)]


def _check_against_oracle(m):
    fro = float(np.linalg.norm(m))
    ref_vals, ref_vecs = jacobi_eigh(m)
    vals = sym_eigvals(m)
    np.testing.assert_allclose(vals, ref_vals, atol=1e-11 * fro)
    assert np.all(np.diff(vals) <= 1e-12 * max(1.0, fro))
    eig_vals, vecs = sym_eig(m)
    np.testing.assert_allclose(eig_vals, ref_vals, atol=1e-11 * fro)
    assert np.all(np.diff(eig_vals) <= 1e-12 * max(1.0, fro))
    np.testing.assert_allclose((vecs * eig_vals) @ vecs.T, m, atol=1e-10 * max(1.0, fro))
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(m.shape[0]), atol=1e-12)
    return ref_vals, ref_vecs, eig_vals, vecs


class TestAgainstJacobiOracle:
    @pytest.mark.parametrize("case", list(SYMMETRIC_CASES))
    def test_sym_eig_matches_oracle(self, case):
        m = SYMMETRIC_CASES[case]()
        ref_vals, ref_vecs, vals, vecs = _check_against_oracle(m)
        tol = 1e-8 * max(1.0, float(np.linalg.norm(m)))
        ours = _eigenspace_projectors(vals, vecs, tol)
        ref = _eigenspace_projectors(ref_vals, ref_vecs, tol)
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            np.testing.assert_allclose(a, b, atol=1e-8)

    @pytest.mark.parametrize("case", list(SINGULAR_CASES))
    def test_singular_values_match_oracle(self, case):
        w = SINGULAR_CASES[case]()
        ref = _oracle_singular_values(w)
        got = singular_values(w)
        assert got.shape == (w.shape[1],)
        np.testing.assert_allclose(got, ref, atol=1e-11 * max(1.0, float(ref[0])))
        assert np.all(np.diff(got) <= 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        a=st.integers(1, 10).flatmap(
            lambda n: hnp.arrays(np.int64, (n, n), elements=st.integers(-1000, 1000))),
        scale=st.integers(-20, 20),
    )
    def test_random_symmetric_matches_oracle(self, a, scale):
        # small integers scaled by a power of two: exact, repeated
        # eigenvalues and zero rows occur, magnitudes span 2^-20..2^31
        m = np.ldexp((a + a.T).astype(np.float64), scale)
        _check_against_oracle(m)
        w = m[:, : max(1, m.shape[1] // 2)]
        ref = _oracle_singular_values(w)
        np.testing.assert_allclose(singular_values(w), ref,
                                   atol=1e-11 * max(1.0, float(ref[0])))


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(4)), np.ones(4), atol=1e-12)

    def test_diagonal_absolute_values_sorted(self):
        np.testing.assert_allclose(
            singular_values(np.diag([-2.0, 3.0])), [3.0, 2.0], atol=1e-12
        )

    def test_squares_match_independent_gram(self, rng):
        w = rng.standard_normal((6, 4))
        gram = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                gram[i, j] = float(np.dot(w[:, i], w[:, j]))
        expected = np.sqrt(np.clip(np.linalg.eigvalsh(gram)[::-1], 0, None))
        np.testing.assert_allclose(singular_values(w), expected, atol=1e-9)

    def test_transpose_invariant(self, rng):
        w = rng.standard_normal((6, 4))
        a, b = singular_values(w), singular_values(w.T)
        k = min(a.size, b.size)
        np.testing.assert_allclose(a[:k], b[:k], atol=1e-10)
        assert np.all(a[k:] < 1e-10)


class TestNesum:
    def test_flat_spectrum(self):
        assert nesum([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0)

    def test_partial_spectrum(self):
        assert nesum([2.0, 1.0, 0.0, 0.0]) == pytest.approx(1.5)

    def test_rank_one_spectrum(self):
        assert nesum([5.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_rejects_unsorted(self):
        with pytest.raises(ShapeMismatch):
            nesum([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatch):
            nesum([])


class TestEigenReport:
    def test_report_fields(self, rng):
        h = rng.standard_normal((20, 4))
        rep = eigen_report(h)
        assert isinstance(rep, EigenReport)
        assert np.all(np.diff(rep.eigenvalues) <= 1e-12)
        assert 1.0 <= rep.nesum <= 4.0 + 1e-9
        assert rep.ratio(1) == pytest.approx(1.0)
