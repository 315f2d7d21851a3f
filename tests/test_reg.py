import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import correlation_oracle as oracle
from conftest import finite_difference, rel_err
from orthoreg import reg
from orthoreg.errors import ConfigError, ShapeMismatch
from orthoreg.graphio import graph_from_edges, normalize
from orthoreg.reg import (
    RegularizerSpec,
    corr_identity_reg,
    cross_correlation,
    laplacian_reg,
    neighborhood_summary,
    orthoreg_loss,
    p_reg,
    regularizer_value_grad,
)
from orthoreg.synth import path_graph, sbm_graph


def ring_modes(n: int) -> np.ndarray:
    """First-frequency cosine/sine columns on a ring: zero-mean, orthogonal,
    and eigenvectors of every ring operator with a positive eigenvalue."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


class TestSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            RegularizerSpec(kind="bogus")

    def test_rejects_negative_strengths(self):
        with pytest.raises(ConfigError):
            RegularizerSpec(kind="orthoreg", alpha=-1.0)

    def test_rejects_bad_hops(self):
        with pytest.raises(ConfigError):
            RegularizerSpec(kind="orthoreg", hops=0)


class TestLaplacianReg:
    def test_constant_rows_on_regular_graph(self, ring8):
        lap = normalize(ring8, "laplacian")
        h = np.tile([2.0, -1.0, 0.5], (8, 1))
        value, grad = laplacian_reg(h, lap, 0.7)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_two_node_hand_computation(self, single_edge):
        lap = normalize(single_edge, "laplacian")
        h = np.array([[1.0], [0.0]])
        lam = 0.9
        value, _ = laplacian_reg(h, lap, lam)
        assert value == pytest.approx(lam * 1.0)

    def test_gradient_matches_finite_differences(self, rng):
        g, _ = sbm_graph(9, seed=4)
        lap = normalize(g, "laplacian")
        h = rng.standard_normal((9, 3))
        lam = 0.31
        _, grad = laplacian_reg(h, lap, lam)
        fd = finite_difference(lambda hh: laplacian_reg(hh, lap, lam)[0], h)
        assert rel_err(grad, fd) < 1e-6

    def test_value_nonnegative(self, rng):
        g, _ = sbm_graph(12, seed=1)
        lap = normalize(g, "laplacian")
        for _ in range(10):
            value, _ = laplacian_reg(rng.standard_normal((12, 4)), lap, 1.0)
            assert value >= -1e-12

    def test_wrong_operator_kind(self, ring8, rng):
        with pytest.raises(ShapeMismatch):
            laplacian_reg(rng.standard_normal((8, 2)), normalize(ring8, "sym"), 1.0)


class TestPReg:
    def test_constant_rows_on_regular_graph(self, ring8):
        a_sym = normalize(ring8, "sym")
        h = np.tile([1.5, -2.0], (8, 1))
        value, grad = p_reg(h, a_sym, 0.5)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_single_edge_hand_computation(self, single_edge):
        a_sym = normalize(single_edge, "sym")
        h = np.array([[1.0], [-1.0]])
        lam = 0.25
        value, _ = p_reg(h, a_sym, lam)
        # propagation flips the sign: residual rows are -2 and 2
        assert value == pytest.approx(lam / 2.0 * 8.0)

    def test_gradient_matches_finite_differences(self, rng):
        g, _ = sbm_graph(10, seed=6)
        a_sym = normalize(g, "sym")
        h = rng.standard_normal((10, 3))
        _, grad = p_reg(h, a_sym, 0.8)
        fd = finite_difference(lambda hh: p_reg(hh, a_sym, 0.8)[0], h)
        assert rel_err(grad, fd) < 1e-6

    def test_value_nonnegative(self, rng):
        g, _ = sbm_graph(10, seed=2)
        a_sym = normalize(g, "sym")
        for _ in range(10):
            assert p_reg(rng.standard_normal((10, 3)), a_sym, 1.0)[0] >= -1e-12


class TestNeighborhoodSummary:
    def test_one_hop_equals_propagation(self, rng):
        g, _ = sbm_graph(12, seed=0)
        a_rw = normalize(g, "rw")
        h = rng.standard_normal((12, 4))
        np.testing.assert_allclose(
            neighborhood_summary(h, a_rw, 1), a_rw.matrix @ h, atol=1e-14
        )

    def test_two_hop_average_on_path(self):
        g = path_graph(4)
        a_rw = normalize(g, "rw")
        h = np.eye(4)
        # dense column-normalized adjacency, built by hand
        a = np.array(
            [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=float
        )
        d_inv = np.diag(1.0 / a.sum(axis=0))
        a_hand = a @ d_inv
        expected = (a_hand @ h + a_hand @ a_hand @ h) / 2.0
        np.testing.assert_allclose(neighborhood_summary(h, a_rw, 2), expected, atol=1e-12)

    def test_second_hop_mode(self, rng):
        g, _ = sbm_graph(10, seed=8)
        a_rw = normalize(g, "rw")
        h = rng.standard_normal((10, 3))
        expected = a_rw.matrix @ (a_rw.matrix @ h)
        np.testing.assert_allclose(
            neighborhood_summary(h, a_rw, 2, mode="second_hop_only"), expected, atol=1e-14
        )

    def test_isolated_node_gets_zero_row(self, rng):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3)])  # node 4 isolated
        a_rw = normalize(g, "rw")
        s = neighborhood_summary(rng.standard_normal((5, 3)), a_rw, 2)
        np.testing.assert_array_equal(s[4], 0.0)

    def test_linearity(self, rng):
        g, _ = sbm_graph(11, seed=3)
        a_rw = normalize(g, "rw")
        h1 = rng.standard_normal((11, 3))
        h2 = rng.standard_normal((11, 3))
        lhs = neighborhood_summary(2.5 * h1 - 1.25 * h2, a_rw, 3)
        rhs = 2.5 * neighborhood_summary(h1, a_rw, 3) - 1.25 * neighborhood_summary(h2, a_rw, 3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestCrossCorrelation:
    def test_self_correlation_of_orthogonal_columns(self, ring8):
        h = ring_modes(8)
        cc = cross_correlation(h, h)
        np.testing.assert_allclose(cc.c, np.eye(2), atol=1e-6)

    def test_negated_partner_gives_minus_one_diagonal(self, rng):
        h = rng.standard_normal((10, 3))
        cc = cross_correlation(h, -h)
        np.testing.assert_allclose(np.diag(cc.c), -1.0, atol=1e-6)

    def test_matches_bruteforce_standardize_then_dot(self, rng):
        h = rng.standard_normal((10, 3))
        s = rng.standard_normal((10, 3))
        eps = 1e-8
        expected = np.zeros((3, 3))
        for k in range(3):
            for kp in range(3):
                a = h[:, k] - h[:, k].mean()
                b = s[:, kp] - s[:, kp].mean()
                a = a / np.sqrt((a**2).mean() + eps)
                b = b / np.sqrt((b**2).mean() + eps)
                expected[k, kp] = float((a * b).mean())
        np.testing.assert_allclose(cross_correlation(h, s).c, expected, atol=1e-12)

    def test_entries_bounded_by_cauchy_schwarz(self, rng):
        for _ in range(10):
            h = rng.standard_normal((15, 4)) * rng.uniform(0.1, 5.0)
            s = rng.standard_normal((15, 4))
            assert np.abs(cross_correlation(h, s).c).max() <= 1.0 + 1e-6

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            cross_correlation(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)))


class TestOrthoregLoss:
    def test_smoothed_orthonormal_embedding_hits_optimum(self, ring8):
        # ring frequency-1 modes: standardized-orthogonal and eigenvectors
        # of the propagation with a positive eigenvalue, so the summary
        # standardizes back to the embedding itself
        a_rw = normalize(ring8, "rw")
        spec = RegularizerSpec(kind="orthoreg", alpha=0.3, beta=0.1, hops=1)
        value, _ = orthoreg_loss(ring_modes(8), a_rw, spec)
        assert value == pytest.approx(-0.3 * 2, abs=1e-6)

    def test_rank_one_smooth_embedding_saturates_off_diagonal(self, ring8):
        a_rw = normalize(ring8, "rw")
        d = 3
        h = np.tile(ring_modes(8)[:, :1], (1, d))
        spec = RegularizerSpec(kind="orthoreg", alpha=0.0, beta=0.05, hops=1)
        value, _ = orthoreg_loss(h, a_rw, spec)
        assert value == pytest.approx(0.05 * d * (d - 1), rel=1e-5)

    def test_gradient_matches_finite_differences(self, rng):
        g, _ = sbm_graph(12, seed=11)
        a_rw = normalize(g, "rw")
        h = rng.standard_normal((12, 4))
        spec = RegularizerSpec(kind="orthoreg", alpha=1e-3, beta=1e-6, hops=2)
        _, grad = orthoreg_loss(h, a_rw, spec)
        fd = finite_difference(lambda hh: orthoreg_loss(hh, a_rw, spec)[0], h)
        assert rel_err(grad, fd) < 1e-5

    def test_gradient_second_hop_mode(self, rng):
        g, _ = sbm_graph(10, seed=13)
        a_rw = normalize(g, "rw")
        h = rng.standard_normal((10, 3))
        spec = RegularizerSpec(
            kind="orthoreg", alpha=2e-3, beta=1e-4, hops=2, pooling="second_hop_only"
        )
        _, grad = orthoreg_loss(h, a_rw, spec)
        fd = finite_difference(lambda hh: orthoreg_loss(hh, a_rw, spec)[0], h)
        assert rel_err(grad, fd) < 1e-5

    def test_gradient_three_hop_average(self, rng):
        g, _ = sbm_graph(11, seed=17)
        a_rw = normalize(g, "rw")
        h = rng.standard_normal((11, 3))
        spec = RegularizerSpec(kind="orthoreg", alpha=5e-3, beta=5e-5, hops=3)
        _, grad = orthoreg_loss(h, a_rw, spec)
        fd = finite_difference(lambda hh: orthoreg_loss(hh, a_rw, spec)[0], h)
        assert rel_err(grad, fd) < 1e-5

    def test_gradient_with_isolated_node(self, rng):
        # the isolated node's summary row is all zeros; its standardized
        # column path runs entirely on the eps guard and must still
        # differentiate cleanly
        g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])  # 6 isolated
        a_rw = normalize(g, "rw")
        h = rng.standard_normal((7, 3))
        spec = RegularizerSpec(kind="orthoreg", alpha=1e-2, beta=1e-4, hops=2)
        _, grad = orthoreg_loss(h, a_rw, spec)
        fd = finite_difference(lambda hh: orthoreg_loss(hh, a_rw, spec)[0], h)
        assert rel_err(grad, fd) < 1e-5

    def test_value_bounded_below(self, rng):
        g, _ = sbm_graph(10, seed=5)
        a_rw = normalize(g, "rw")
        spec = RegularizerSpec(kind="orthoreg", alpha=0.7, beta=0.2, hops=2)
        for _ in range(10):
            value, _ = orthoreg_loss(rng.standard_normal((10, 4)), a_rw, spec)
            assert value >= -0.7 * 4 - 1e-9

    def test_permutation_equivariance(self, rng):
        g, _ = sbm_graph(10, seed=21)
        a_rw = normalize(g, "rw")
        h = rng.standard_normal((10, 3))
        spec = RegularizerSpec(kind="orthoreg", alpha=1e-2, beta=1e-3, hops=2)
        value, grad = orthoreg_loss(h, a_rw, spec)

        old_of_new = rng.permutation(10)          # position k holds old node old_of_new[k]
        new_of_old = np.argsort(old_of_new)
        src, dst = g.arc_endpoints()
        g_perm = graph_from_edges(10, np.column_stack([new_of_old[src], new_of_old[dst]]))
        value_p, grad_p = orthoreg_loss(h[old_of_new], normalize(g_perm, "rw"), spec)
        assert value_p == pytest.approx(value, rel=1e-10)
        np.testing.assert_allclose(grad_p, grad[old_of_new], atol=1e-10)


class TestCorrIdentityReg:
    def test_orthogonal_zero_mean_columns_cost_nothing(self, ring8):
        value, _ = corr_identity_reg(ring_modes(8), 0.4)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_two_identical_columns(self, rng):
        col = rng.standard_normal(12)
        value, _ = corr_identity_reg(np.column_stack([col, col]), 0.6)
        assert value == pytest.approx(2 * 0.6, rel=1e-6)

    def test_gradient_matches_finite_differences(self, rng):
        h = rng.standard_normal((11, 4))
        _, grad = corr_identity_reg(h, 0.9)
        fd = finite_difference(lambda hh: corr_identity_reg(hh, 0.9)[0], h)
        assert rel_err(grad, fd) < 1e-5


def reference_backward(cc, grad_c):
    """reg._backward's formulas with a fresh temporary per correction; ``cc``
    is left as it was."""
    n = cc._hc.shape[0]
    m = grad_c / (np.outer(cc._std_h, cc._std_s) * n)
    weighted = cc.c * grad_c
    grad_h = cc._sc @ m.T - cc._hc * (weighted.sum(axis=1) / (n * cc._std_h**2))
    if cc._sc is cc._hc:
        return grad_h, None
    grad_s = cc._hc @ m - cc._sc * (weighted.sum(axis=0) / (n * cc._std_s**2))
    return grad_h, grad_s


HOPS_AND_POOLING = [(hops, pooling) for hops in (1, 2, 3)
                    for pooling in (reg.POOL_AVERAGE, reg.POOL_SECOND_HOP)]


class TestBuffers:
    """The regularizers reuse the buffers they own, never the caller's, and
    the reuse does not change a bit of any result."""

    @staticmethod
    def case(constant_column):
        g, _ = sbm_graph(30, n_blocks=3, intra_p=0.3, inter_p=0.05, seed=8)
        h = np.random.default_rng(9).standard_normal((30, 5))
        if constant_column:
            h[:, 2] = 1.5
        return normalize(g, "rw"), h

    @pytest.mark.parametrize("hops,pooling", HOPS_AND_POOLING)
    def test_regularizers_leave_h_untouched(self, hops, pooling):
        a_rw, h = self.case(False)
        before = h.copy()
        orthoreg_loss(h, a_rw, RegularizerSpec(kind="orthoreg", alpha=1e-2, beta=1e-3,
                                               hops=hops, pooling=pooling))
        assert np.array_equal(h, before)
        corr_identity_reg(h, 0.3)
        assert np.array_equal(h, before)

    @pytest.mark.parametrize("constant_column", [False, True])
    @pytest.mark.parametrize("hops,pooling", HOPS_AND_POOLING)
    def test_cross_backward_is_bit_identical_and_leaves_s_untouched(self, hops, pooling,
                                                                    constant_column):
        a_rw, h = self.case(constant_column)
        s = neighborhood_summary(h, a_rw, hops, pooling)
        before = s.copy()
        cc = cross_correlation(h, s)
        grad_c = np.random.default_rng(hops).standard_normal(cc.c.shape)
        expected = reference_backward(cc, grad_c)
        grad_h, grad_s = reg._backward(cc, grad_c)
        assert np.array_equal(grad_h, expected[0])
        assert np.array_equal(grad_s, expected[1])
        assert np.array_equal(s, before)

    @pytest.mark.parametrize("constant_column", [False, True])
    def test_auto_correlation_backward_is_bit_identical(self, constant_column):
        _, h = self.case(constant_column)
        before = h.copy()
        cc = cross_correlation(h, h)
        grad_c = np.random.default_rng(4).standard_normal(cc.c.shape)
        grad_c += grad_c.T
        expected, _ = reference_backward(cc, grad_c)
        grad_h, grad_s = reg._backward(cc, grad_c)
        assert grad_s is None and np.array_equal(grad_h, expected)
        assert np.array_equal(h, before)

    def test_orthoreg_loss_peak_memory_budget(self):
        # one call's traced peak above entry is at most 5.5 N x D arrays
        g, _ = sbm_graph(400, n_blocks=4, intra_p=0.1, inter_p=0.01, seed=3)
        a_rw = normalize(g, "rw")
        h = np.random.default_rng(5).standard_normal((400, 64))
        spec = RegularizerSpec(kind="orthoreg", alpha=2e-3, beta=1e-4, hops=2)
        orthoreg_loss(h, a_rw, spec)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            orthoreg_loss(h, a_rw, spec)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * h.nbytes, peak / h.nbytes


class TestDispatch:
    def test_none_kind(self, rng):
        value, grad = regularizer_value_grad(rng.standard_normal((5, 2)),
                                             RegularizerSpec(kind="none"), {})
        assert value == 0.0 and grad is None

    def test_dispatch_matches_direct_calls(self, rng):
        g, _ = sbm_graph(10, seed=1)
        ops = {
            "laplacian": normalize(g, "laplacian"),
            "sym": normalize(g, "sym"),
            "rw": normalize(g, "rw"),
        }
        h = rng.standard_normal((10, 3))
        lap_spec = RegularizerSpec(kind="laplacian", lam=0.2)
        v1, g1 = regularizer_value_grad(h, lap_spec, ops)
        v2, g2 = laplacian_reg(h, ops["laplacian"], 0.2)
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


# each kind's tolerance against central differences, as in the tests above
FD_TOLERANCE = {"laplacian": 1e-6, "preg": 1e-6, "corr_identity": 1e-5, "orthoreg": 1e-5}


@st.composite
def embedding_cases(draw, wide=False):
    """A graph with isolated nodes allowed, an H with N rows (N down to D,
    or down to D / 2 when ``wide``) whose trailing columns may be constant,
    and regularizer settings. N starts at 3: two centered rows standardize
    to +-(1, -1), where every correlation saturates."""
    n = draw(st.integers(3, 9))
    d = draw(st.integers(1, 2 * n if wide else n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = graph_from_edges(n, draw(st.lists(pairs, max_size=2 * n)))
    h = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, d))
    n_const = draw(st.integers(0, d - 1))
    if n_const:
        h[:, d - n_const:] = draw(st.sampled_from([0.0, 1.0, -2.5]))
    strength = st.sampled_from([1e-3, 3e-2, 0.7])
    settings_ = dict(lam=draw(strength), alpha=draw(strength), beta=draw(strength),
                     hops=draw(st.integers(1, 3)),
                     pooling=draw(st.sampled_from(["average_1toT", "second_hop_only"])))
    return g, h, settings_


def extrapolated_difference(f, h) -> np.ndarray:
    """Central differences with the step-squared error term cancelled
    (Richardson). A centered constant column has its standard deviation set
    by the sqrt(CORRELATION_EPS) = 1e-4 guard, ten plain steps wide, where
    the plain difference is off by about 1e-3 relative."""
    return (4.0 * finite_difference(f, h, eps=5e-6) - finite_difference(f, h, eps=1e-5)) / 3.0


class TestGradientProperty:
    @pytest.mark.parametrize("kind", ["laplacian", "preg", "corr_identity", "orthoreg"])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(case=embedding_cases())
    def test_every_regularizer_matches_central_differences(self, kind, case):
        g, h, settings_ = case
        spec = RegularizerSpec(kind=kind, **settings_)
        ops = {op: normalize(g, op) for op in ("laplacian", "sym", "rw")}
        _, grad = regularizer_value_grad(h, spec, ops)
        fd = extrapolated_difference(lambda hh: regularizer_value_grad(hh, spec, ops)[0], h)
        if grad.any():
            assert rel_err(grad, fd) < FD_TOLERANCE[kind]
        else:
            # a stationary point (corr_identity with one non-constant
            # column) has no relative error; the differences must vanish
            assert np.abs(fd).max() < 1e-9


def oracle_gap(new, old) -> float:
    """Largest difference, in units of the oracle's largest entry."""
    old = np.asarray(old)
    return float(np.abs(np.asarray(new) - old).max()) / max(float(np.abs(old).max()), 1e-300)


def assert_matches_oracle(h, a_rw, spec):
    """cross_correlation's C and its gradient for a random grad_c,
    orthoreg_loss and corr_identity_reg, each within 1e-10 of the largest
    entry of the standardized-copy route."""
    n, d = h.shape
    s = neighborhood_summary(h, a_rw, spec.hops, spec.pooling)
    np.testing.assert_allclose(s, oracle.summary(h, a_rw, spec.hops, spec.pooling),
                               rtol=0, atol=1e-12 * max(np.abs(h).max(), 1.0))
    cc = cross_correlation(h, s)
    c_old, backward = oracle.cross_correlation(h, s)
    assert oracle_gap(cc.c, c_old) <= 1e-10
    grad_c = np.random.default_rng(n * d).standard_normal((d, d))
    grad_h_old, grad_s_old = backward(grad_c)
    grad_h, grad_s = reg._backward(cc, grad_c)
    assert oracle_gap(grad_h, grad_h_old) <= 1e-10
    assert oracle_gap(grad_s, grad_s_old) <= 1e-10

    value, grad = orthoreg_loss(h, a_rw, spec)
    value_old, grad_old = oracle.orthoreg_loss(h, a_rw, spec)
    # |C| <= 1 entrywise bounds the value's magnitude
    assert abs(value - value_old) <= 1e-10 * (spec.alpha * d + spec.beta * d * d)
    assert oracle_gap(grad, grad_old) <= 1e-10

    value, grad = corr_identity_reg(h, spec.lam)
    value_old, grad_old = oracle.corr_identity_reg(h, spec.lam)
    assert abs(value - value_old) <= 1e-10 * spec.lam * d * d
    assert oracle_gap(grad, grad_old) <= 1e-10


class TestAgainstCorrelationOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=embedding_cases(wide=True))
    def test_moment_route_matches_standardized_copies(self, case):
        g, h, settings_ = case
        spec = RegularizerSpec(kind="orthoreg", **settings_)
        assert_matches_oracle(h, normalize(g, "rw"), spec)

    def test_collapse_lab_shape(self):
        # 400 nodes by a 512-wide embedding, as the collapse lab trains:
        # C has rank at most N - 1 < D
        g, _ = sbm_graph(400, seed=2)
        h = np.maximum(np.random.default_rng(3).standard_normal((400, 512)), 0.0)
        spec = RegularizerSpec(kind="orthoreg", lam=0.05, alpha=2e-3, beta=1e-6, hops=2)
        assert_matches_oracle(h, normalize(g, "rw"), spec)
