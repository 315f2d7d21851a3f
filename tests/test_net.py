import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import mlp_oracle as oracle
from conftest import finite_difference, rel_err
from orthoreg.errors import EmptyMask, MissingFile, ParseError, ShapeMismatch
from orthoreg.experiments import gcn_backward, gcn_forward
from orthoreg.graphio import normalize
from orthoreg.net import (
    GradientBundle,
    MlpParams,
    adam_init,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from orthoreg.synth import sbm_graph


class TestForward:
    def test_zero_weights_give_uniform_softmax(self, rng):
        params = init_mlp([4, 5, 3], seed=0)
        for w in params.layer_weights:
            w[:] = 0.0
        x = rng.standard_normal((6, 4))
        _, logits, _ = forward(params, x)
        np.testing.assert_array_equal(logits, np.zeros((6, 3)))
        np.testing.assert_allclose(softmax(logits), np.full((6, 3), 1 / 3), atol=1e-15)

    def test_identity_encoder_passes_positive_input_through(self, rng):
        params = init_mlp([3, 3, 2], seed=0)
        params.layer_weights[0][:] = np.eye(3)
        params.layer_biases[0][:] = 0.0
        x = np.abs(rng.standard_normal((5, 3))) + 0.1
        h, _, _ = forward(params, x)
        np.testing.assert_allclose(h, x, atol=1e-15)

    def test_matches_naive_loop_forward(self, rng):
        params = init_mlp([4, 6, 3], seed=3)
        x = rng.standard_normal((5, 4))
        h, logits, _ = forward(params, x)
        # layer-by-layer scalar re-implementation
        expected_h = np.zeros((5, 6))
        for i in range(5):
            for j in range(6):
                acc = params.layer_biases[0][j]
                for k in range(4):
                    acc += x[i, k] * params.layer_weights[0][k, j]
                expected_h[i, j] = max(acc, 0.0)
        expected_logits = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                acc = params.layer_biases[1][j]
                for k in range(6):
                    acc += expected_h[i, k] * params.layer_weights[1][k, j]
                expected_logits[i, j] = acc
        np.testing.assert_allclose(h, expected_h, atol=1e-12)
        np.testing.assert_allclose(logits, expected_logits, atol=1e-12)

    def test_deterministic_given_seed(self, rng):
        params = init_mlp([4, 8, 3], seed=1)
        x = rng.standard_normal((10, 4))
        a = forward(params, x, dropout_p=0.5, seed=7, train_mode=True)
        b = forward(params, x, dropout_p=0.5, seed=7, train_mode=True)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_eval_mode_ignores_seed(self, rng):
        params = init_mlp([4, 8, 3], seed=1)
        x = rng.standard_normal((10, 4))
        a = forward(params, x, dropout_p=0.5, seed=1, train_mode=False)
        b = forward(params, x, dropout_p=0.5, seed=99, train_mode=False)
        np.testing.assert_array_equal(a[1], b[1])

    def test_dropout_changes_train_output(self, rng):
        params = init_mlp([4, 8, 3], seed=1)
        x = rng.standard_normal((10, 4))
        a = forward(params, x, dropout_p=0.5, seed=1, train_mode=True)
        b = forward(params, x, dropout_p=0.5, seed=2, train_mode=True)
        assert not np.array_equal(a[0], b[0])

    def test_input_width_checked(self, rng):
        params = init_mlp([4, 8, 3], seed=1)
        with pytest.raises(ShapeMismatch):
            forward(params, rng.standard_normal((5, 3)))

    def test_softmax_rows_sum_to_one(self, rng):
        params = init_mlp([4, 8, 3], seed=1)
        x = rng.standard_normal((10, 4)) * 50.0
        _, logits, _ = forward(params, x)
        np.testing.assert_allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-12)


class TestCrossEntropy:
    def test_uniform_logits_loss_is_log_c(self):
        logits = np.zeros((4, 5))
        loss, _ = cross_entropy(logits, np.array([0, 1, 2, 3]), np.arange(4))
        assert loss == pytest.approx(np.log(5.0))

    def test_margin_saturation(self):
        labels = np.array([1, 0])
        idx = np.arange(2)
        losses = []
        for margin in (5.0, 10.0):
            logits = np.zeros((2, 3))
            logits[0, 1] = margin
            logits[1, 0] = margin
            losses.append(cross_entropy(logits, labels, idx)[0])
        assert losses[1] < losses[0]
        assert losses[1] < 1e-3

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        idx = np.array([0, 2, 3, 5])
        _, grad = cross_entropy(logits, labels, idx)

        def f(lg):
            return cross_entropy(lg, labels, idx)[0]

        fd = finite_difference(f, logits)
        assert rel_err(grad, fd) < 1e-6

    def test_gradient_zero_outside_mask(self, rng):
        logits = rng.standard_normal((6, 3))
        _, grad = cross_entropy(logits, np.zeros(6, dtype=int), np.array([1, 4]))
        assert not grad[[0, 2, 3, 5]].any()

    def test_empty_mask(self, rng):
        with pytest.raises(EmptyMask):
            cross_entropy(rng.standard_normal((3, 2)), np.zeros(3, dtype=int), [])


class TestBackward:
    def test_zero_gradients_give_zero_bundle(self, rng):
        params = init_mlp([4, 6, 3], seed=0)
        x = rng.standard_normal((5, 4))
        h, logits, cache = forward(params, x)
        grads = backward(params, cache, np.zeros_like(logits), np.zeros_like(h))
        for g in grads.weight_grads + grads.bias_grads:
            assert not g.any()

    def test_injected_gradient_through_identity_encoder(self, rng):
        params = init_mlp([3, 3, 2], seed=0)
        params.layer_weights[0][:] = np.eye(3)
        params.layer_biases[0][:] = 0.0
        x = np.abs(rng.standard_normal((5, 3))) + 0.1
        h, logits, cache = forward(params, x)
        grad_h = rng.standard_normal(h.shape)
        grads = backward(params, cache, np.zeros_like(logits), grad_h)
        np.testing.assert_allclose(grads.weight_grads[0], x.T @ grad_h, atol=1e-12)

    def test_full_network_gradient_vs_finite_differences(self, rng):
        from orthoreg.graphio import normalize
        from orthoreg.reg import laplacian_reg
        from orthoreg.synth import ring_graph

        lap = normalize(ring_graph(7), "laplacian")
        params = init_mlp([4, 5, 4, 3], seed=2)
        x = rng.standard_normal((7, 4))
        labels = rng.integers(0, 3, size=7)
        idx = np.array([0, 2, 4])

        def objective(p: MlpParams) -> float:
            h, logits, _ = forward(p, x)
            sup, _ = cross_entropy(logits, labels, idx)
            reg, _ = laplacian_reg(h, lap, 0.05)
            return sup + reg

        h, logits, cache = forward(params, x)
        _, grad_logits = cross_entropy(logits, labels, idx)
        _, grad_h = laplacian_reg(h, lap, 0.05)
        grads = backward(params, cache, grad_logits, grad_h)

        for li in range(params.n_layers):
            w = params.layer_weights[li]

            def f_w(wv, li=li, w=w):
                saved = w.copy()
                w[:] = wv
                val = objective(params)
                w[:] = saved
                return val

            fd = finite_difference(f_w, w.copy())
            assert rel_err(grads.weight_grads[li], fd) < 1e-5
            b = params.layer_biases[li]

            def f_b(bv, li=li, b=b):
                saved = b.copy()
                b[:] = bv
                val = objective(params)
                b[:] = saved
                return val

            fd_b = finite_difference(f_b, b.copy())
            assert rel_err(grads.bias_grads[li], fd_b) < 1e-5

    def test_shape_mismatch_on_bad_injection(self, rng):
        params = init_mlp([4, 6, 3], seed=0)
        x = rng.standard_normal((5, 4))
        _, logits, cache = forward(params, x)
        with pytest.raises(ShapeMismatch):
            backward(params, cache, np.zeros_like(logits), np.zeros((5, 7)))


def sparse_features(rng, n, f, density):
    """Binary bag-of-words style features: dense array and its CSR copy."""
    x = (rng.random((n, f)) < density).astype(np.float64)
    return x, sp.csr_matrix(x)


class TestSparseInput:
    def test_forward_and_backward_match_dense_input(self, rng):
        params = init_mlp([40, 12, 8, 3], seed=5)
        x, x_csr = sparse_features(rng, 30, 40, 0.1)
        labels = rng.integers(0, 3, size=30)
        grad_h = rng.standard_normal((30, 8))
        out = []
        for inp in (x, x_csr):
            h, logits, cache = forward(params, inp, dropout_p=0.3, seed=11,
                                       train_mode=True)
            _, grad_logits = cross_entropy(logits, labels, np.arange(10))
            out.append((h, logits, backward(params, cache, grad_logits, grad_h)))
        (h_d, logits_d, g_d), (h_s, logits_s, g_s) = out
        assert isinstance(h_s, np.ndarray) and isinstance(logits_s, np.ndarray)
        assert rel_err(h_s, h_d) < 1e-12
        assert rel_err(logits_s, logits_d) < 1e-12
        for a, b in zip(g_s.weight_grads + g_s.bias_grads + [g_s.grad_h],
                        g_d.weight_grads + g_d.bias_grads + [g_d.grad_h]):
            assert isinstance(a, np.ndarray)
            assert a.shape == b.shape
            assert rel_err(a, b) < 1e-12

    def test_first_layer_gradient_vs_finite_differences(self, rng):
        from orthoreg.graphio import normalize
        from orthoreg.reg import laplacian_reg
        from orthoreg.synth import ring_graph

        lap = normalize(ring_graph(9), "laplacian")
        params = init_mlp([20, 6, 5, 3], seed=4)
        _, x_csr = sparse_features(rng, 9, 20, 0.2)
        labels = rng.integers(0, 3, size=9)
        idx = np.array([0, 3, 5, 8])

        def objective() -> float:
            h, logits, _ = forward(params, x_csr)
            sup, _ = cross_entropy(logits, labels, idx)
            reg, _ = laplacian_reg(h, lap, 0.05)
            return sup + reg

        h, logits, cache = forward(params, x_csr)
        _, grad_logits = cross_entropy(logits, labels, idx)
        _, grad_h = laplacian_reg(h, lap, 0.05)
        grads = backward(params, cache, grad_logits, grad_h)

        for analytic, arr in ((grads.weight_grads[0], params.layer_weights[0]),
                              (grads.bias_grads[0], params.layer_biases[0])):

            def f(v, arr=arr):
                saved = arr.copy()
                arr[:] = v
                val = objective()
                arr[:] = saved
                return val

            assert rel_err(analytic, finite_difference(f, arr.copy())) < 1e-5

    def test_non_finite_stored_entry_rejected(self, rng):
        params = init_mlp([10, 4, 2], seed=0)
        _, x_csr = sparse_features(rng, 6, 10, 0.3)
        x_csr.data[0] = np.nan
        with pytest.raises(ShapeMismatch, match="non-finite"):
            forward(params, x_csr)

    def test_input_width_checked(self, rng):
        params = init_mlp([10, 4, 2], seed=0)
        _, x_csr = sparse_features(rng, 6, 9, 0.3)
        with pytest.raises(ShapeMismatch):
            forward(params, x_csr)


class TestAdam:
    def _scalar_setup(self, lr=0.1):
        params = MlpParams(
            layer_weights=[np.array([[1.0]])],
            layer_biases=[np.zeros(1)],
            dims=[1, 1],
        )
        state = adam_init(params, lr=lr)
        return params, state

    def test_zero_gradient_keeps_parameters(self):
        params, state = self._scalar_setup()
        before = params.layer_weights[0].copy()
        grads = GradientBundle([np.zeros((1, 1))], [np.zeros(1)], np.zeros((1, 1)))
        adam_step(params, grads, state)
        np.testing.assert_array_equal(params.layer_weights[0], before)

    def test_first_step_magnitude(self):
        params, state = self._scalar_setup(lr=0.1)
        grads = GradientBundle([np.ones((1, 1))], [np.zeros(1)], np.zeros((1, 1)))
        adam_step(params, grads, state)
        # bias-corrected m_hat = v_hat = 1 at t=1, so the update is
        # -lr / (1 + eps) ~ -0.1
        assert params.layer_weights[0][0, 0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_constant_gradient_unit_step_property(self):
        params, state = self._scalar_setup(lr=0.05)
        grads = GradientBundle([np.full((1, 1), 0.37)], [np.zeros(1)], np.zeros((1, 1)))
        prev = params.layer_weights[0][0, 0]
        for _ in range(200):
            adam_step(params, grads, state)
            step = prev - params.layer_weights[0][0, 0]
            prev = params.layer_weights[0][0, 0]
        assert step == pytest.approx(0.05, rel=0.05)

    def test_decoupled_weight_decay_shrinks_weights(self):
        params, state = self._scalar_setup(lr=0.1)
        state.weight_decay = 0.5
        grads = GradientBundle([np.zeros((1, 1))], [np.zeros(1)], np.zeros((1, 1)))
        adam_step(params, grads, state)
        assert params.layer_weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 0.5)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_matches_oracle_bit_for_bit(self, rng, weight_decay):
        """The in-place step against the textbook formula of
        tests/mlp_oracle.py, over steps whose gradients change scale by up
        to eight orders of magnitude."""
        params = init_mlp([37, 24, 16, 5], seed=2)
        ref = params.copy()
        state = adam_init(params, lr=0.01, weight_decay=weight_decay)
        ref_state = adam_init(ref, lr=0.01, weight_decay=weight_decay)
        for _ in range(12):
            scale = 10.0 ** rng.integers(-6, 3)
            grads = GradientBundle(
                [scale * rng.standard_normal(w.shape) for w in params.layer_weights],
                [scale * rng.standard_normal(b.shape) for b in params.layer_biases],
                None,
            )
            given = [g.copy() for g in grads.weight_grads + grads.bias_grads]
            adam_step(params, grads, state)
            # the gradients are read, not written
            for g, before in zip(grads.weight_grads + grads.bias_grads, given):
                assert np.array_equal(g, before)
            oracle.adam_step(ref, grads, ref_state)
            for a, b in zip(params.layer_weights + params.layer_biases + state.first_moment
                            + state.second_moment,
                            ref.layer_weights + ref.layer_biases + ref_state.first_moment
                            + ref_state.second_moment):
                assert np.array_equal(a, b)
        assert state.step == ref_state.step == 12


def checkpoint_with(path, drop=None, **arrays):
    """Save a [4, 3, 2] checkpoint to ``path``, less the array ``drop`` and
    with ``arrays`` replaced."""
    save_checkpoint(init_mlp([4, 3, 2], seed=0), path)
    with np.load(path) as saved:
        blob = dict(saved)
    blob.pop(drop, None)
    blob.update(arrays)
    np.savez(path, **blob)


def write_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


# (array named in the message or None, writer of the defective file, error)
CHECKPOINT_DEFECTS = {
    "missing-W0": ("W0", lambda p: checkpoint_with(p, drop="W0"), ParseError),
    "missing-b1": ("b1", lambda p: checkpoint_with(p, drop="b1"), ParseError),
    "missing-dims": ("dims", lambda p: checkpoint_with(p, drop="dims"), ParseError),
    "missing-version": ("version", lambda p: checkpoint_with(p, drop="version"), ParseError),
    "nan-W1": ("W1", lambda p: checkpoint_with(p, W1=np.full((3, 2), np.nan)), ShapeMismatch),
    "inf-b0": ("b0", lambda p: checkpoint_with(p, b0=np.array([0.0, np.inf, 0.0])),
               ShapeMismatch),
    "short-dims": ("dims", lambda p: checkpoint_with(p, dims=np.array([4])), ShapeMismatch),
    "empty-version": ("version", lambda p: checkpoint_with(p, version=np.array([], dtype=np.int64)),
                      ShapeMismatch),
    "text-file": (None, lambda p: p.write_text("W0 = 1\n"), ParseError),
    "empty-file": (None, lambda p: p.write_bytes(b""), ParseError),
    "npy-array": (None, write_npy, ParseError),
    "absent": (None, lambda p: None, MissingFile),
}


class TestCheckpoint:
    @pytest.mark.parametrize("case", list(CHECKPOINT_DEFECTS))
    def test_defective_file_rejected_naming_it(self, tmp_path, case):
        array, make, error = CHECKPOINT_DEFECTS[case]
        path = tmp_path / "model.npz"
        make(path)
        with pytest.raises(error) as excinfo:
            load_checkpoint(path)
        message = str(excinfo.value)
        assert excinfo.value.exit_code == 3
        assert str(path) in message
        if array is not None:
            assert array in message.replace(str(path), "")

    def test_round_trip(self, tmp_path, rng):
        params = init_mlp([5, 7, 4], seed=9)
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.dims == params.dims
        for a, b in zip(loaded.layer_weights, params.layer_weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.layer_biases, params.layer_biases):
            np.testing.assert_array_equal(a, b)

    def test_version_guard(self, tmp_path):
        params = init_mlp([2, 2], seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        blob = dict(np.load(path))
        blob["version"] = np.asarray([999])
        np.savez(path, **blob)
        with pytest.raises(ShapeMismatch):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value, message", [
        ("W1", np.zeros((3, 3)), "W1"),
        ("b0", np.zeros(5), "b0"),
        ("activation", np.asarray(["tanh"]), "tanh"),
    ])
    def test_contradicting_arrays_rejected_naming_them(self, tmp_path, name, value, message):
        path = tmp_path / "model.npz"
        save_checkpoint(init_mlp([32, 16, 8, 4], seed=0), path)
        blob = dict(np.load(path))
        blob[name] = value
        np.savez(path, **blob)
        with pytest.raises(ShapeMismatch, match=message):
            load_checkpoint(path)


@st.composite
def input_cases(draw):
    """A real-valued feature matrix at a drawn density whose first row and
    first column are all zero, a 3- or 4-layer network, and dropout."""
    n = draw(st.integers(2, 20))
    f = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    x = np.where(rng.random((n, f)) < density, rng.standard_normal((n, f)), 0.0)
    x[0, :] = 0.0
    x[:, 0] = 0.0
    dims = [f] + draw(st.lists(st.integers(1, 12), min_size=2, max_size=3))
    return x, dims, draw(st.sampled_from([0.0, 0.3])), rng


class TestSparseDenseProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=input_cases())
    def test_csr_and_dense_input_agree(self, case):
        x, dims, dropout_p, rng = case
        params = init_mlp(dims, seed=3)
        n = x.shape[0]
        labels = rng.integers(0, dims[-1], size=n)
        grad_h = rng.standard_normal((n, dims[-2]))
        out = []
        for inp in (x, sp.csr_matrix(x)):
            h, logits, cache = forward(params, inp, dropout_p=dropout_p, seed=7,
                                       train_mode=True)
            _, grad_logits = cross_entropy(logits, labels, np.arange(n))
            grads = backward(params, cache, grad_logits, grad_h)
            out.append([h, logits, *grads.weight_grads, *grads.bias_grads, grads.grad_h,
                        forward(params, inp)[1]])
        for dense, csr in zip(*out):
            assert isinstance(csr, np.ndarray) and csr.shape == dense.shape
            assert np.abs(csr - dense).max() <= 1e-10 * max(np.abs(dense).max(), 1.0)


class TestAgainstMlpOracle:
    """In-place forward/backward against the cached pre-activation route of
    tests/mlp_oracle.py: the same draws and the same bits."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=input_cases(), dropout_p=st.sampled_from([0.0, 0.3, 0.5]),
           train_mode=st.booleans(), inject=st.booleans())
    def test_mlp_matches_oracle_bit_for_bit(self, case, dropout_p, train_mode, inject):
        x, dims, _, rng = case
        params = init_mlp(dims, seed=3)
        for b in params.layer_biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        n = x.shape[0]
        labels = rng.integers(0, dims[-1], size=n)
        grad_h = rng.standard_normal((n, dims[-2])) if inject else None
        for inp in (x, sp.csr_matrix(x)):
            h, logits, cache = forward(params, inp, dropout_p=dropout_p, seed=7,
                                       train_mode=train_mode)
            h_old, logits_old, cache_old = oracle.forward(params, inp, dropout_p=dropout_p,
                                                          seed=7, train_mode=train_mode)
            assert set(cache) == {"inputs", "h", "scale"}
            _, grad_logits = cross_entropy(logits, labels, np.arange(n))
            grads = backward(params, cache, grad_logits, grad_h)
            old = oracle.backward(params, cache_old, grad_logits, grad_h)
            new = (grads.weight_grads, grads.bias_grads, grads.grad_h)
            for a, b in zip([h, logits, *new[0], *new[1], new[2]],
                            [h_old, logits_old, *old[0], *old[1], old[2]]):
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=input_cases(), dropout_p=st.sampled_from([0.0, 0.3, 0.5]),
           train_mode=st.booleans(), weight_decay=st.sampled_from([0.0, 5e-4]))
    def test_gcn_matches_oracle_bit_for_bit(self, case, dropout_p, train_mode, weight_decay):
        x, dims, _, rng = case
        g, _ = sbm_graph(x.shape[0], n_blocks=2, intra_p=0.5, inter_p=0.1,
                         seed=int(rng.integers(0, 2**31)))
        op = normalize(g, "sym")
        params = init_mlp(dims, seed=3)
        weights, biases = params.layer_weights, params.layer_biases
        for b in biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        kwargs = dict(dropout_p=dropout_p, seed=7, train_mode=train_mode)
        logits, cache = gcn_forward(op, weights, biases, x, **kwargs)
        logits_old, cache_old = oracle.gcn_forward(op, weights, biases, x, **kwargs)
        assert set(cache) == {"inputs", "scale"}
        grad_logits = rng.standard_normal(logits.shape)
        new = gcn_backward(op, weights, cache, grad_logits, weight_decay)
        old = oracle.gcn_backward(op, weights, cache_old, grad_logits, weight_decay)
        for a, b in zip([logits, *new[0], *new[1]], [logits_old, *old[0], *old[1]]):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
