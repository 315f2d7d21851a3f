from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from orthoreg.collapse import (
    OFF_DIAG_MAX,
    RATIO_FLOOR,
    SIMULATIONS,
    SNAPSHOTS,
    WEIGHT_RUN_KINDS,
    CollapseVerdict,
    DynamicsRun,
    Snapshot,
    build_p,
    closed_form_trajectory,
    feature_space_trajectory,
    free_embedding_optimize,
    gd_linear_trajectory,
    largest_gap_split,
    verify_ratio_monotonicity,
    verify_spectrum_identity,
    whiten,
    write_dynamics_csv,
)
from orthoreg.errors import (ConfigError, Divergence, InputNotWhitened, NotSymmetric,
                             ShapeMismatch, UnstableStepSize)
from orthoreg.graphio import NormalizedOperator, graph_from_edges, normalize
from orthoreg.synth import GRAPHS, ring_graph, sbm_graph
from orthoreg.tensor import EigenReport, covariance, nesum, singular_values, sym_eigvals


def _taylor_expm(a: np.ndarray, terms: int = 30, squarings: int = 6) -> np.ndarray:
    """Scaled-and-squared truncated Taylor series; independent of the
    eigendecomposition route."""
    small = a / (2.0**squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ small / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def whitened_features(rng, n, d):
    return whiten(rng.standard_normal((n, d)))


class TestBuildP:
    def test_zero_operator_gives_zero(self, rng):
        op = NormalizedOperator(kind="laplacian", n_nodes=5,
                                matrix=sp.csr_matrix((5, 5)))
        np.testing.assert_array_equal(build_p(rng.standard_normal((5, 3)), op), 0.0)

    def test_identity_features_reproduce_operator(self):
        g, _ = sbm_graph(8, seed=0)
        lap = normalize(g, "laplacian")
        np.testing.assert_allclose(
            build_p(np.eye(8), lap), lap.matrix.toarray(), atol=1e-12
        )

    def test_matches_double_sum_oracle(self, rng):
        g, _ = sbm_graph(7, seed=1)
        lap = normalize(g, "laplacian")
        x = rng.standard_normal((7, 3))
        dense_l = lap.matrix.toarray()
        expected = np.zeros((3, 3))
        for i in range(7):
            for j in range(7):
                expected += dense_l[i, j] * np.outer(x[i], x[j])
        np.testing.assert_allclose(build_p(x, lap), expected, atol=1e-12)

    def test_output_symmetric(self, rng):
        g, _ = sbm_graph(9, seed=2)
        p = build_p(rng.standard_normal((9, 4)), normalize(g, "laplacian"))
        np.testing.assert_array_equal(p, p.T)


class TestClosedFormTrajectory:
    def test_time_zero_snapshot_is_initial(self, rng):
        p = rng.standard_normal((4, 4))
        p = (p + p.T) / 2
        w0 = rng.standard_normal((4, 4))
        run = closed_form_trajectory(p, w0, [0.0, 1.0])
        np.testing.assert_allclose(
            run.snapshots[0].singular_values, singular_values(w0), atol=1e-10
        )

    def test_isotropic_flow_keeps_ratios(self, rng):
        c = 0.8
        p = c * np.eye(5)
        w0 = rng.standard_normal((5, 5))
        run = closed_form_trajectory(p, w0, np.linspace(0.0, 2.0, 6))
        sv = run.sv_matrix()
        base = sv[0] / sv[0, 0]
        for row in sv:
            np.testing.assert_allclose(row / row[0], base, atol=1e-9)

    def test_identity_start_gives_exponential_singular_values(self, rng):
        lam = np.array([1.3, 0.7, 0.2, -0.4])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        p = (q * lam) @ q.T
        times = np.array([0.0, 0.5, 1.5])
        run = closed_form_trajectory(p, np.eye(4), times)
        for k, t in enumerate(times):
            expected = np.sort(np.exp(lam * t))[::-1]
            np.testing.assert_allclose(
                run.snapshots[k].singular_values, expected, rtol=1e-10
            )

    # e^400 squares past the float64 range; e^800 is past it already
    @pytest.mark.parametrize("rate", [400.0, 800.0])
    def test_overflowing_flow_raises_divergence(self, rate):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(Divergence, match="snapshot 1"):
            closed_form_trajectory(np.diag([rate, 0.0]), np.eye(2), [0.0, 1.0])

    def test_rejects_bad_times(self, rng):
        p = np.eye(3)
        with pytest.raises(ValueError):
            closed_form_trajectory(p, np.eye(3), [0.5, 1.0])
        with pytest.raises(ValueError):
            closed_form_trajectory(p, np.eye(3), [0.0, 1.0, 1.0])

    # from W(0) = I the snapshot states are exp(P t) itself
    def test_expm_zero_time_is_identity(self, rng):
        p = rng.standard_normal((5, 5))
        p = (p + p.T) / 2
        run = closed_form_trajectory(p, np.eye(5), [0.0])
        np.testing.assert_allclose(run.snapshots[0].state, np.eye(5), atol=1e-12)

    def test_expm_diagonal_input(self):
        p = np.diag([1.0, -2.0, 0.5])
        run = closed_form_trajectory(p, np.eye(3), [0.0, 0.7])
        np.testing.assert_allclose(
            run.snapshots[1].state, np.diag(np.exp(0.7 * np.array([1.0, -2.0, 0.5]))),
            atol=1e-12,
        )

    def test_expm_matches_truncated_taylor(self, rng):
        p = rng.standard_normal((4, 4))
        p = (p + p.T) / 2
        run = closed_form_trajectory(p, np.eye(4), [0.0, 0.1])
        np.testing.assert_allclose(run.snapshots[1].state, _taylor_expm(0.1 * p), atol=1e-8)

    def test_expm_semigroup_property(self, rng):
        p = rng.standard_normal((4, 4))
        p = (p + p.T) / 2
        run = closed_form_trajectory(p, np.eye(4), [0.0, 0.3, 0.45, 0.3 + 0.45])
        at = [s.state for s in run.snapshots]
        np.testing.assert_allclose(at[3], at[1] @ at[2], atol=1e-8)

    def test_expm_rejects_asymmetric(self, rng):
        with pytest.raises(NotSymmetric):
            closed_form_trajectory(rng.standard_normal((3, 3)), np.eye(3), [0.0, 1.0])


class TestGdLinearTrajectory:
    def test_zero_interaction_keeps_weights(self, rng):
        g, _ = sbm_graph(6, seed=3)
        lap = normalize(g, "laplacian")
        x = np.zeros((6, 3))
        w0 = rng.standard_normal((3, 3))
        run = gd_linear_trajectory(x, lap, w0, 0.1, 20, snapshot_every=5)
        for s in run.snapshots:
            np.testing.assert_array_equal(s.state, w0)

    def test_scalar_recurrence(self):
        g = graph_from_edges(2, [(0, 1)])
        lap = normalize(g, "laplacian")
        x = np.array([[1.0], [0.0]])  # P = [[1]]
        eta = 0.2
        run = gd_linear_trajectory(x, lap, np.array([[1.0]]), eta, 10)
        for s in run.snapshots:
            expected = (1.0 - 2.0 * eta) ** s.step
            assert s.state[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_unstable_step_rejected(self, rng):
        g, _ = sbm_graph(8, seed=4)
        lap = normalize(g, "laplacian")
        x = whitened_features(rng, 8, 3)
        with pytest.raises(UnstableStepSize):
            gd_linear_trajectory(x, lap, np.eye(3), 10.0, 5)

    def test_converges_to_closed_form_as_step_shrinks(self, rng):
        g, _ = sbm_graph(10, seed=5)
        lap = normalize(g, "laplacian")
        x = whitened_features(rng, 10, 3)
        p = build_p(x, lap)
        lam_max = float(sym_eigvals(p)[0])
        # gentle regime; near the stability bound both flows vanish and the
        # comparison would be vacuous
        eta = 0.03 / lam_max
        horizon = 2.0 * eta * 40
        ref = closed_form_trajectory(p, np.eye(3), [0.0, horizon], sign=-1)
        w_ref = ref.snapshots[-1].state

        err = []
        for k in (1, 2):
            run = gd_linear_trajectory(x, lap, np.eye(3), eta / k, 40 * k,
                                       snapshot_every=40 * k)
            err.append(np.linalg.norm(run.snapshots[-1].state - w_ref))
        assert err[0] / err[1] == pytest.approx(2.0, rel=0.25)


class TestFeatureSpaceTrajectory:
    def test_tau_zero_is_constant(self, rng):
        g, _ = sbm_graph(8, seed=6)
        a_sym = normalize(g, "sym")
        h0 = rng.standard_normal((8, 3))
        run = feature_space_trajectory(h0, a_sym, 0.0, 5)
        for s in run.snapshots:
            np.testing.assert_array_equal(s.state, h0)

    def test_half_step_equals_propagation(self, rng):
        g, _ = sbm_graph(8, seed=7)
        a_sym = normalize(g, "sym")
        h0 = rng.standard_normal((8, 3))
        run = feature_space_trajectory(h0, a_sym, 0.5, 3)
        expected = h0.copy()
        for s in run.snapshots[1:]:
            expected = a_sym.matrix @ expected
            np.testing.assert_allclose(s.state, expected, atol=1e-12)

    def test_smoothing_collapses_nesum(self, rng):
        # connected and non-bipartite: 6 nodes with a triangle
        g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
        a_sym = normalize(g, "sym")
        h0 = rng.standard_normal((6, 4))
        run = feature_space_trajectory(h0, a_sym, 0.5, 200, snapshot_every=200)
        assert run.snapshots[-1].eigen_report.nesum < run.snapshots[0].eigen_report.nesum

    def test_dominant_direction_stabilizes(self, rng):
        g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
        a_sym = normalize(g, "sym")
        h0 = rng.standard_normal((6, 3))
        run = feature_space_trajectory(h0, a_sym, 0.5, 60, snapshot_every=20)
        tops = []
        for s in run.snapshots[-2:]:
            from orthoreg.tensor import correlation, sym_eig

            _, vecs = sym_eig(correlation(s.state))
            tops.append(vecs[:, 0])
        cosang = abs(float(np.dot(tops[0], tops[1])))
        assert cosang > 1.0 - 1e-6

    def test_tau_out_of_range(self, rng):
        g, _ = sbm_graph(6, seed=8)
        with pytest.raises(ValueError):
            feature_space_trajectory(rng.standard_normal((6, 2)),
                                     normalize(g, "sym"), 1.5, 3)


def _run_from_sv(rows) -> DynamicsRun:
    snaps = []
    for k, sv in enumerate(rows):
        sv = np.asarray(sv, dtype=np.float64)
        lam = sv**2
        snaps.append(
            Snapshot(step=k, state=np.diag(sv), singular_values=sv,
                     eigen_report=EigenReport(eigenvalues=lam, nesum=nesum(lam)))
        )
    return DynamicsRun(snaps)


class TestVerifyRatioMonotonicity:
    def test_isotropic_ratios_pass(self):
        run = _run_from_sv([[2.0, 1.0], [4.0, 2.0], [8.0, 4.0]])
        verdict = verify_ratio_monotonicity(run, 1)
        assert verdict.monotone_ratio_ok
        assert verdict.vanishing_ratio_estimate == pytest.approx(0.5)

    def test_growing_small_ratio_fails(self):
        run = _run_from_sv([[2.0, 1.0], [2.0, 1.5]])
        assert not verify_ratio_monotonicity(run, 1).monotone_ratio_ok

    def test_single_snapshot_trivially_ok(self):
        run = _run_from_sv([[3.0, 1.0]])
        assert verify_ratio_monotonicity(run, 1).monotone_ratio_ok

    def test_closed_form_ratio_matches_analytic_decay(self, rng):
        lam = np.array([2.0, 1.5, 0.5, 0.1])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        p = (q * lam) @ q.T
        t_final = 3.0
        times = np.linspace(0.0, t_final, 30)
        run = closed_form_trajectory(p, np.eye(4), times)
        d = largest_gap_split(lam)
        assert d == 2  # gap 1.5 -> 0.5
        verdict = verify_ratio_monotonicity(run, d, tol=1e-9)
        assert verdict.monotone_ratio_ok
        expected = np.exp(-(lam[d - 1] - lam[d]) * t_final)
        assert verdict.vanishing_ratio_estimate == pytest.approx(expected, rel=1e-6)
        # both ratio directions are reported
        assert "large_over_small" in verdict.details[-1]

    def test_reports_both_directions(self):
        run = _run_from_sv([[2.0, 1.0], [8.0, 2.0]])
        verdict = verify_ratio_monotonicity(run, 1)
        last = verdict.details[-1]
        assert last["small_over_large"] == pytest.approx(0.25)
        assert last["large_over_small"] == pytest.approx(4.0)


class TestWhitenAndSpectrumIdentity:
    def test_whiten_gives_identity_covariance(self, rng):
        x = whiten(rng.standard_normal((40, 6)))
        np.testing.assert_allclose(covariance(x), np.eye(6), atol=1e-10)

    def test_identity_weights_give_unit_spectrum(self, rng):
        x = whitened_features(rng, 30, 4)
        run = closed_form_trajectory(np.zeros((4, 4)), np.eye(4), [0.0, 1.0])
        verdict = verify_spectrum_identity(x, run)
        assert verdict.monotone_ratio_ok
        lam = sym_eigvals(covariance(x @ run.snapshots[0].state))
        np.testing.assert_allclose(lam, 1.0, atol=1e-10)

    def test_spectrum_matches_squared_singular_values(self, rng):
        g, _ = sbm_graph(30, seed=9)
        lap = normalize(g, "laplacian")
        x = whitened_features(rng, 30, 5)
        p = build_p(x, lap)
        eigs = sym_eigvals(p)
        times = np.linspace(0.0, 8.0 / max(eigs[0] - eigs[-1], 1e-9), 20)
        run = closed_form_trajectory(p, np.eye(5), times)
        verdict = verify_spectrum_identity(x, run)
        assert verdict.details[-1]["lambda_sigma_sq_max_rel_err"] < 1e-8

    def test_rejects_unwhitened_input(self, rng):
        x = rng.standard_normal((30, 4)) * 3.0
        run = closed_form_trajectory(np.zeros((4, 4)), np.eye(4), [0.0, 1.0])
        with pytest.raises(InputNotWhitened):
            verify_spectrum_identity(x, run)

    def test_whiten_needs_tall_matrix(self, rng):
        with pytest.raises(ShapeMismatch):
            whiten(rng.standard_normal((3, 5)))


class TestFreeEmbeddingOptimize:
    def test_orthogonal_init_with_alpha_zero_stays_put(self, ring8):
        theta = 2.0 * np.pi * np.arange(8) / 8
        # seed the optimizer deterministically, then overwrite is not
        # possible through the API; instead verify via loss landscape:
        # orthogonal smooth modes already sit at zero off-diagonal cost
        from orthoreg.graphio import normalize as _norm
        from orthoreg.reg import RegularizerSpec, orthoreg_loss

        h = np.column_stack([np.cos(theta), np.sin(theta)])
        spec = RegularizerSpec(kind="orthoreg", alpha=0.0, beta=0.3, hops=1)
        value, grad = orthoreg_loss(h, _norm(ring8, "rw"), spec)
        assert value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(grad, 0.0, atol=1e-7)

    def test_ring_fixed_point_is_smooth_and_orthogonal(self):
        g = ring_graph(8)
        h, history = free_embedding_optimize(
            g, 8, 2, alpha=1e-2, beta=1e-5, steps=5000, lr=200.0, seed=0
        )
        final = history[-1]
        assert final["off_diag_norm"] < 0.05
        assert final["smoothness"] > 0.9

    def test_node_count_validated(self, ring8):
        with pytest.raises(ShapeMismatch):
            free_embedding_optimize(ring8, 9, 2, 1e-2, 1e-5, 10, 1.0)

    def test_blow_up_on_the_last_step_is_reported(self, ring8):
        with pytest.raises(Divergence, match="non-finite at step 1"):
            free_embedding_optimize(ring8, 8, 2, 1e-2, 1e-5, 1, 1e306)


@pytest.mark.parametrize("run, named", [
    (lambda g, h: gd_linear_trajectory(whiten(h), normalize(g, "laplacian"), np.eye(3),
                                       0.01, 5, snapshot_every=0), "snapshot_every"),
    (lambda g, h: feature_space_trajectory(h, normalize(g, "sym"), 0.5, 5, snapshot_every=0),
     "snapshot_every"),
    (lambda g, h: free_embedding_optimize(g, g.n_nodes, 3, 1e-2, 1e-5, 5, 1.0,
                                          history_every=0), "history_every"),
])
def test_zero_record_interval_is_a_config_error(rng, run, named):
    # each interval divides the step counter, so it must be at least 1
    g, _ = sbm_graph(20, seed=2)
    with pytest.raises(ConfigError, match=named):
        run(g, rng.standard_normal((20, 3)))


class TestDynamicsCsv:
    def test_layout_and_determinism(self, tmp_path, rng):
        p = rng.standard_normal((3, 3))
        p = (p + p.T) / 2
        run = closed_form_trajectory(p, np.eye(3), [0.0, 0.5, 1.0])
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_dynamics_csv(run, path_a)
        write_dynamics_csv(run, path_b)
        text = path_a.read_text()
        assert text.splitlines()[0] == "step,index,singular_value,eigenvalue,nesum"
        assert len(text.splitlines()) == 1 + 3 * 3
        assert "\r" not in text
        assert text == path_b.read_text()


class TestSimulations:
    """Each simulate kind's input, schedule and verdict rule, without the CLI."""

    SETTINGS = dict(dim=4, steps=120, seed=3, tau=0.5, sign=1, alpha=1e-2, beta=1e-5, lr=200.0)

    def test_graph_table_builds_n_nodes(self):
        for name, build in GRAPHS.items():
            assert build(12, 0).n_nodes == 12, name

    @pytest.mark.parametrize("kind", WEIGHT_RUN_KINDS)
    def test_weight_runs_judge_ratios_above_the_floor(self, kind):
        g = sbm_graph(30, seed=1)[0]
        run, verdict = SIMULATIONS[kind](g, **self.SETTINGS)
        lap = normalize(g, "laplacian")
        x = whiten(np.random.default_rng(3).standard_normal((30, 4)))
        eigs = sym_eigvals(build_p(x, lap))
        steps = [s.step for s in run.snapshots]
        assert steps == (list(range(SNAPSHOTS)) if kind == "closed-form"
                         else list(range(0, 121, 2)))
        resolved = [s for s in run.snapshots
                    if s.singular_values[-1] >= RATIO_FLOOR * s.singular_values[0]]
        assert 2 <= len(resolved)
        assert verdict == verify_ratio_monotonicity(replace(run, snapshots=resolved),
                                                    largest_gap_split(eigs))
        assert verdict.monotone_ratio_ok is True

    def test_feature_update_judges_nesum(self):
        g = sbm_graph(30, seed=1)[0]
        run, verdict = SIMULATIONS["feature-update"](g, **self.SETTINGS)
        assert [s.step for s in run.snapshots] == list(range(0, 121, 2))
        first, last = (s.eigen_report.nesum for s in (run.snapshots[0], run.snapshots[-1]))
        assert verdict == CollapseVerdict(monotone_ratio_ok=True, d_split=1,
                                          vanishing_ratio_estimate=last / first,
                                          details=[{"initial_nesum": first, "final_nesum": last}])
        assert last < first

    @pytest.mark.parametrize("steps, orthogonal", [(1, False), (4000, True)])
    def test_free_embedding_judges_the_off_diagonal_norm(self, ring8, steps, orthogonal):
        settings = dict(self.SETTINGS, dim=2, steps=steps)
        run, verdict = SIMULATIONS["free-embedding"](ring8, **settings)
        _, history = free_embedding_optimize(ring8, 8, 2, 1e-2, 1e-5, steps, 200.0, seed=3)
        assert run is None
        assert verdict == CollapseVerdict(monotone_ratio_ok=orthogonal, d_split=2,
                                          vanishing_ratio_estimate=history[-1]["off_diag_norm"],
                                          details=history)
        assert (history[-1]["off_diag_norm"] < OFF_DIAG_MAX) is orthogonal
