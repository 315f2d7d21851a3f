import json
import os
import warnings
from types import SimpleNamespace

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import mlp_oracle as oracle
from conftest import finite_difference, rel_err
from orthoreg import experiments, graphio, reg
from orthoreg.errors import ConfigError, Divergence, EmptyMask, ShapeMismatch
from orthoreg.experiments import (
    GCN_CONFIG,
    SUITES,
    TrainConfig,
    coldstart_split,
    evaluate,
    gcn_comparator,
    inference_benchmark,
    resolve_regularizer,
    run_trials,
    sgc_comparator,
    train,
    tune_coarse_grid,
    write_metrics_jsonl,
    write_spectrum_csv,
)
from orthoreg.graphio import mask_edges, normalize, select_isolated, write_json
from orthoreg.net import backward, cross_entropy, forward, init_mlp
from orthoreg.reg import REGULARIZERS, RegularizerSpec
from orthoreg.synth import sbm_graph


SMALL = dict(epochs=60, hidden=16, embedding=16, early_stop_patience=0)


def small_config(kind="none", seed=0, **reg_kwargs) -> TrainConfig:
    return TrainConfig(regularizer=RegularizerSpec(kind=kind, **reg_kwargs),
                       seed=seed, trials=2, **SMALL)


def suite_config_for(**reg_kwargs):
    """A SUITES ``config_for`` over small_config: the orthoreg kind takes
    ``reg_kwargs``, any other kind its defaults."""
    return lambda kind: small_config(kind, **(reg_kwargs if kind == "orthoreg" else {}))


class TestTrainLoop:
    def test_config_invariants_enforced(self):
        from orthoreg.errors import ConfigError

        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(trials=0)

    @pytest.mark.parametrize("field, value", [
        ("dropout_p", 1.0), ("dropout_p", 1.5), ("dropout_p", -0.1),
        ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
        ("weight_decay", -1.0), ("hidden", 0), ("embedding", 0),
        ("early_stop_patience", -5), ("seed", -1),
        ("epochs", 2.5), ("trials", 2.5), ("hidden", 16.0), ("embedding", 1.5), ("seed", 1.5),
        ("eigens_every", 0.5), ("early_stop_patience", 2.5),
    ])
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_bit_identical_histories_for_same_config(self, synthetic_problem):
        graph, data = synthetic_problem
        cfg = small_config("orthoreg", alpha=0.05, beta=5e-5)
        _, h1 = train(cfg, graph, data)
        _, h2 = train(cfg, graph, data)
        assert len(h1.records) == len(h2.records)
        for a, b in zip(h1.records, h2.records):
            assert a.train_loss == b.train_loss
            assert a.sup_loss == b.sup_loss
            assert a.reg_loss == b.reg_loss
            assert a.val_acc == b.val_acc
            assert a.test_acc == b.test_acc

    def test_model_selection_uses_best_validation_epoch(self, synthetic_problem):
        graph, data = synthetic_problem
        _, history = train(small_config("none"), graph, data)
        vals = [r.val_acc for r in history.records]
        best = int(np.argmax(vals))
        assert history.best_epoch == history.records[best].epoch
        assert history.best_val_acc == vals[best]
        assert history.best_test_acc == history.records[best].test_acc

    def test_early_stopping_truncates(self, synthetic_problem):
        graph, data = synthetic_problem
        cfg = TrainConfig(regularizer=RegularizerSpec(kind="none"), epochs=400,
                          early_stop_patience=10, hidden=16, embedding=16, seed=0)
        _, history = train(cfg, graph, data)
        assert len(history.records) < 400

    def test_eigen_reports_recorded_on_schedule(self, synthetic_problem):
        graph, data = synthetic_problem
        cfg = TrainConfig(regularizer=RegularizerSpec(kind="none"), epochs=20,
                          eigens_every=10, early_stop_patience=0,
                          hidden=16, embedding=16, seed=0)
        _, history = train(cfg, graph, data)
        epochs_with = [r.epoch for r in history.records if r.eigen is not None]
        assert epochs_with == [10, 20]
        rep = history.records[-1].eigen
        assert rep.eigenvalues.size == 16

    def test_second_hop_pooling_trains(self, synthetic_problem):
        graph, data = synthetic_problem
        cfg = TrainConfig(
            regularizer=RegularizerSpec(kind="orthoreg", alpha=0.05, beta=5e-5,
                                        hops=2, pooling="second_hop_only"),
            seed=0, **SMALL,
        )
        _, history = train(cfg, graph, data)
        assert history.best_val_acc > 0.25  # learns something beyond chance

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_empty_split_rejected_before_initialization(self, synthetic_problem, monkeypatch,
                                                        split):
        graph, data = synthetic_problem
        empty = dataclasses.replace(data, **{f"{split}_idx": np.array([], dtype=np.int64)})

        def no_init(*args, **kwargs):
            raise AssertionError("init_mlp ran")

        monkeypatch.setattr(experiments, "init_mlp", no_init)
        with pytest.raises(EmptyMask, match=f"the {split} split is empty"):
            train(small_config("none"), graph, empty)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_regularizer_gradient_raises_divergence(self, synthetic_problem,
                                                               monkeypatch, bad):
        # net.backward no longer scans the gradient it is handed: the blow-up
        # is train's to report, as Divergence (exit 4), not as a data error
        graph, data = synthetic_problem
        calls = []
        original = experiments.regularizer_value_grad

        def poisoned(h, spec, operators):
            value, grad = original(h, spec, operators)
            calls.append(None)
            if len(calls) == 2:
                grad[0, 0] = bad
            return value, grad

        monkeypatch.setattr(experiments, "regularizer_value_grad", poisoned)
        cfg = small_config("orthoreg", alpha=0.05, beta=5e-5)
        with pytest.raises(Divergence, match="regularizer gradient became non-finite at epoch 2"):
            train(cfg, graph, data)

    @pytest.mark.parametrize("kind, strengths, built", [
        ("none", {}, []),
        ("laplacian", {"lam": 0.1}, ["laplacian"]),
        ("preg", {"lam": 0.1}, ["sym"]),
        ("corr_identity", {"lam": 0.1}, []),
        ("orthoreg", {"alpha": 0.05, "beta": 5e-5}, ["rw"]),
    ])
    def test_builds_the_one_operator_its_kind_reads(self, synthetic_problem, monkeypatch,
                                                    kind, strengths, built):
        graph, data = synthetic_problem
        calls = []
        original = experiments.normalize

        def counting(g, op_kind):
            calls.append(op_kind)
            return original(g, op_kind)

        monkeypatch.setattr(experiments, "normalize", counting)
        train(dataclasses.replace(small_config(kind, **strengths), epochs=2), graph, data)
        assert calls == built == [op for op in [REGULARIZERS[kind].operator] if op is not None]

    def test_regularized_beats_plain_mlp_on_homophilous_features(self, synthetic_problem):
        # noisy class prototypes + strongly homophilous structure: the
        # cross-correlation regularizer mines the graph the plain MLP
        # cannot see
        graph, data = synthetic_problem
        common = dict(epochs=200, hidden=32, embedding=32, early_stop_patience=60)
        mlp = TrainConfig(regularizer=RegularizerSpec(kind="none"), seed=1, **common)
        ortho = TrainConfig(
            regularizer=RegularizerSpec(kind="orthoreg", alpha=0.2, beta=2e-4, hops=2),
            seed=1, **common,
        )
        acc_mlp = run_trials(dataclasses.replace(mlp, trials=3), graph, data).mean_acc
        acc_ortho = run_trials(dataclasses.replace(ortho, trials=3), graph, data).mean_acc
        assert acc_ortho >= acc_mlp + 0.03


def sparse_problem(synthetic_problem, density=0.02, n_features=600, seed=0):
    """The synthetic problem with binary bag-of-words features: each class
    favours its own slice of the vocabulary, at the given density."""
    graph, data = synthetic_problem
    rng = np.random.default_rng(seed)
    n, c = data.n_nodes, data.n_classes
    favoured = np.zeros((n, n_features), dtype=bool)
    width = n_features // c
    for k in range(c):
        favoured[data.labels == k, k * width:(k + 1) * width] = True
    p = np.where(favoured, 3.0, 1.0)
    p *= density / p.mean()
    features = (rng.random((n, n_features)) < p).astype(np.float64)
    return graph, dataclasses.replace(data, features=features)


def force_dense(monkeypatch, data):
    """A fresh copy of ``data`` whose training input is worked out with the
    CSR threshold below every density, so it stays dense."""
    monkeypatch.setattr(graphio, "SPARSE_INPUT_MAX_DENSITY", -1.0)
    return dataclasses.replace(data)


class TestSparseTraining:
    @pytest.mark.parametrize("kind,reg_kwargs", [
        ("none", {}), ("orthoreg", dict(alpha=0.05, beta=5e-5)),
    ])
    def test_sparse_features_match_dense_run(self, synthetic_problem, monkeypatch,
                                             kind, reg_kwargs):
        graph, data = sparse_problem(synthetic_problem)
        assert sp.issparse(data.training_input)
        cfg = TrainConfig(regularizer=RegularizerSpec(kind=kind, **reg_kwargs),
                          seed=0, epochs=30, hidden=16, embedding=16,
                          early_stop_patience=0, eigens_every=10)
        _, sparse_run = train(cfg, graph, data)
        _, dense_run = train(cfg, graph, force_dense(monkeypatch, data))
        assert len(sparse_run.records) == len(dense_run.records) == 30
        for a, b in zip(sparse_run.records, dense_run.records):
            for name in ("train_loss", "sup_loss", "reg_loss"):
                assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-10,
                                                         abs=1e-300)
            assert (a.val_acc, a.test_acc) == (b.val_acc, b.test_acc)
        assert sparse_run.best_epoch == dense_run.best_epoch

    def test_dense_features_keep_dense_path(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        assert data.training_input is data.features
        cfg = small_config("orthoreg", alpha=0.05, beta=5e-5)
        _, default_run = train(cfg, graph, data)
        _, dense_run = train(cfg, graph, force_dense(monkeypatch, data))
        assert default_run.records == dense_run.records

    def test_threshold_is_inclusive(self):
        x = np.zeros((10, 10))
        x[0, :5] = 1.0  # exactly 5 % dense
        assert sp.issparse(graphio._training_input(x))
        x[1, 0] = 1.0
        assert graphio._training_input(x) is x

    def test_features_converted_once_per_dataset(self, synthetic_problem, monkeypatch):
        graph, data = sparse_problem(synthetic_problem)
        converted = []

        def counting(features):
            converted.append(features)
            return sp.csr_matrix(features)

        monkeypatch.setattr(graphio, "_training_input", counting)
        cfg = dataclasses.replace(small_config("orthoreg", alpha=0.05, beta=5e-5), epochs=2)
        _, first = train(cfg, graph, data)
        _, second = train(cfg, graph, data)
        run_trials(dataclasses.replace(cfg, trials=2), graph, data)
        assert len(converted) == 1 and converted[0] is data.features
        assert first.records == second.records


def record_eval_rows(monkeypatch, convolution: bool = False) -> list:
    """Wrap ``experiments.forward`` and return the list it appends the row
    count of every eval-mode call to: the MLP's calls, or with
    ``convolution`` the graph convolution's (those given an ``op``)."""
    rows = []
    original = experiments.forward

    def recording(params, x, **kwargs):
        if not kwargs.get("train_mode", False) and (kwargs.get("op") is not None) == convolution:
            rows.append(x.shape[0])
        return original(params, x, **kwargs)

    monkeypatch.setattr(experiments, "forward", recording)
    return rows


def full_pass_accuracy(params, x, labels, idx) -> float:
    pred = np.argmax(forward(params, x)[1], axis=1)
    return float(np.mean(pred[idx] == labels[idx]))


@st.composite
def subset_cases(draw):
    """A feature matrix at a drawn density, a 3- or 4-layer network with
    non-zero biases, and a non-empty subset of its rows, down to one."""
    n = draw(st.integers(1, 40))
    f = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))
    x = np.where(rng.random((n, f)) < density, rng.standard_normal((n, f)), 0.0)
    params = init_mlp([f] + draw(st.lists(st.integers(1, 12), min_size=2, max_size=3)),
                      seed=3)
    for b in params.layer_biases:
        b[:] = 0.1 * rng.standard_normal(b.shape)
    rows = np.sort(rng.choice(n, size=draw(st.integers(1, n)), replace=False))
    return x, params, rows


class TestScoredRows:
    """train() scores each epoch from an eval forward of val ∪ test only;
    the full pass runs on eigen-report epochs and for the graph
    convolution."""

    def test_mlp_forwards_scored_rows_except_on_eigen_epochs(self, synthetic_problem,
                                                             monkeypatch):
        graph, data = synthetic_problem
        rows = record_eval_rows(monkeypatch)
        cfg = dataclasses.replace(small_config("orthoreg", alpha=0.05, beta=5e-5),
                                  epochs=7, eigens_every=3)
        _, history = train(cfg, graph, data)
        scored = data.val_idx.size + data.test_idx.size
        assert scored < data.n_nodes
        assert rows == [data.n_nodes if e % 3 == 0 else scored for e in range(1, 8)]
        assert [r.epoch for r in history.records if r.eigen is not None] == [3, 6]

    def test_graph_convolution_forwards_every_row(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        mlp_rows = record_eval_rows(monkeypatch)
        gcn_rows = record_eval_rows(monkeypatch, convolution=True)
        cfg = dataclasses.replace(small_config("none"), epochs=4)
        train(cfg, graph, data, convolve=True)
        assert mlp_rows == []
        assert gcn_rows == [data.n_nodes] * 4

    @pytest.mark.parametrize("sparse", [False, True])
    def test_records_match_the_full_pass_route(self, synthetic_problem, sparse):
        # eigens_every=1 runs the full pass on every epoch
        graph, data = sparse_problem(synthetic_problem) if sparse else synthetic_problem
        assert sp.issparse(data.training_input) == sparse
        cfg = small_config("orthoreg", alpha=0.05, beta=5e-5)
        _, scored = train(cfg, graph, data)
        _, full = train(dataclasses.replace(cfg, eigens_every=1), graph, data)
        assert all(r.eigen is not None for r in full.records)
        assert [dataclasses.replace(r, eigen=None) for r in full.records] == scored.records
        assert (scored.best_epoch, scored.best_val_acc, scored.best_test_acc) == (
            full.best_epoch, full.best_val_acc, full.best_test_acc)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_best_accuracies_are_full_pass_accuracies(self, synthetic_problem, sparse):
        graph, data = sparse_problem(synthetic_problem) if sparse else synthetic_problem
        params, history = train(small_config("none"), graph, data)
        x = data.training_input
        assert history.best_val_acc == full_pass_accuracy(params, x, data.labels, data.val_idx)
        assert history.best_test_acc == full_pass_accuracy(params, x, data.labels,
                                                           data.test_idx)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=subset_cases())
    def test_subset_predictions_match_full_pass_rows(self, case):
        # BLAS may round a small subset's GEMM differently from the full
        # one (a 1-row input goes to gemv), so the logits are compared to
        # float64 rounding and only the predictions exactly
        x, params, rows = case
        for inp in (x, sp.csr_matrix(x)):
            sub = experiments.forward(params, inp[rows], train_mode=False)[1]
            full = forward(params, inp)[1][rows]
            assert np.array_equal(np.argmax(sub, axis=1), np.argmax(full, axis=1))
            assert np.abs(sub - full).max() <= 1e-12 * max(np.abs(full).max(), 1.0)


class TestEvaluate:
    def test_perfect_predictor(self):
        labels = np.array([0, 1, 2, 1])
        feats = np.eye(3)[labels] * 5.0
        params = init_mlp([3, 3], seed=0)
        params.layer_weights[0][:] = np.eye(3)
        params.layer_biases[0][:] = 0.0
        assert evaluate(params, feats, labels, np.arange(4)) == 1.0

    def test_random_logits_sit_at_chance(self, rng):
        labels = rng.integers(0, 3, size=1000)
        feats = rng.standard_normal((1000, 3))
        params = init_mlp([3, 3], seed=0)
        params.layer_weights[0][:] = np.eye(3)
        params.layer_biases[0][:] = 0.0
        acc = evaluate(params, feats, labels, np.arange(1000))
        assert 0.28 <= acc <= 0.39

    def test_trained_model_overfits_train_mask(self, synthetic_problem):
        graph, data = synthetic_problem
        cfg = TrainConfig(regularizer=RegularizerSpec(kind="none"), epochs=200,
                          hidden=32, embedding=32, early_stop_patience=0, seed=3)
        params, _ = train(cfg, graph, data)
        assert evaluate(params, data.features, data.labels, data.train_idx) >= 0.95

    def test_empty_mask(self, synthetic_problem, rng):
        graph, data = synthetic_problem
        params = init_mlp([data.n_features, 4, data.n_classes], seed=0)
        with pytest.raises(EmptyMask):
            evaluate(params, data.features, data.labels, np.array([], dtype=int))

    def test_out_of_range_idx_rejected_naming_idx(self, synthetic_problem):
        graph, data = synthetic_problem
        params = init_mlp([data.n_features, 4, data.n_classes], seed=0)
        n = data.n_nodes
        for idx in ([-1], [n], [0, n + 5], [3, -n]):
            with pytest.raises(ShapeMismatch, match="idx"):
                evaluate(params, data.features, data.labels, idx)

    @pytest.mark.parametrize("labels, idx, bad", [
        ([0, 1, -1, 1, 0], [0, 1, 2], "label -1"),
        ([0, 1, 7, 1, 0], [2, 0], "label 7"),
    ])
    def test_unscorable_label_rejected_naming_idx(self, labels, idx, bad):
        params = init_mlp([3, 2], seed=0)
        with pytest.raises(ShapeMismatch, match=f"idx selects row 2, whose {bad}"):
            evaluate(params, np.ones((5, 3)), np.array(labels), idx)

    def test_forwards_only_the_scored_rows(self, synthetic_problem, monkeypatch):
        graph, data = sparse_problem(synthetic_problem)
        params = init_mlp([data.n_features, 8, data.n_classes], seed=0)
        expected = full_pass_accuracy(params, data.features, data.labels, data.val_idx)
        rows = record_eval_rows(monkeypatch)
        for features in (data.features, sp.csr_matrix(data.features), sp.coo_matrix(data.features)):
            assert evaluate(params, features, data.labels, data.val_idx) == expected
        assert rows == [data.val_idx.size] * 3


class TestRunTrials:
    def test_reports_per_trial_and_population_std(self, synthetic_problem):
        graph, data = synthetic_problem
        report = run_trials(dataclasses.replace(small_config("none"), trials=3), graph, data)
        assert len(report.per_trial) == 3
        assert report.std_acc == pytest.approx(float(np.std(report.per_trial)))
        assert report.std_acc >= 0.0
        assert 0.0 <= report.mean_acc <= 1.0

    def test_thread_fanout_matches_serial(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        cfg = small_config("none")
        serial = run_trials(dataclasses.replace(cfg, trials=3), graph, data)
        monkeypatch.setenv("ORTHOREG_THREADS", "3")
        threaded = run_trials(dataclasses.replace(cfg, trials=3), graph, data)
        assert serial.per_trial == threaded.per_trial


    def test_bad_thread_count_rejected(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        for raw in ("two", "0", "-3", "1.5"):
            monkeypatch.setenv("ORTHOREG_THREADS", raw)
            with pytest.raises(ConfigError, match="ORTHOREG_THREADS"):
                run_trials(small_config("none"), graph, data)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_report_config_matches_trials_run(self, synthetic_problem, trials):
        graph, data = synthetic_problem
        cfg = dataclasses.replace(small_config("none"), epochs=5, trials=trials)
        report = run_trials(cfg, graph, data)
        assert report.config["trials"] == len(report.per_trial) == trials

    def test_first_trial_result_handed_back(self, synthetic_problem):
        graph, data = synthetic_problem
        seen = []
        report = run_trials(small_config("none"), graph, data,
                            on_first_trial=lambda p, h: seen.append(h))
        assert len(seen) == 1
        assert report.per_trial[0] == seen[0].best_test_acc


class TestColdstart:
    def test_reduced_graph_and_eval_set_are_consistent(self, synthetic_problem):
        graph, data = synthetic_problem
        rows = dict(SUITES["coldstart"](suite_config_for(alpha=0.05, beta=5e-5),
                                        graph, data, ratios=[]))
        report = rows["orthoreg"]
        isolated_used, reduced_used, cold = coldstart_split(graph, data)
        isolated, reduced = select_isolated(graph, 3.0)
        assert isolated_used.size == isolated.size
        assert reduced_used.n_arcs == reduced.n_arcs
        assert cold.test_idx.size <= isolated.size
        assert 0.0 <= report.mean_acc <= 1.0

    def test_eval_nodes_exclude_train_and_val(self, synthetic_problem):
        graph, data = synthetic_problem
        isolated, reduced, cold = coldstart_split(graph, data, 20.0)
        np.testing.assert_array_equal(reduced.row_offsets,
                                      select_isolated(graph, 20.0)[1].row_offsets)
        assert np.all(np.isin(cold.test_idx, isolated))
        assert not np.intersect1d(cold.test_idx, data.train_idx).size
        assert not np.intersect1d(cold.test_idx, data.val_idx).size
        np.testing.assert_array_equal(cold.train_idx, data.train_idx)
        np.testing.assert_array_equal(cold.val_idx, data.val_idx)

    def test_unlabeled_isolated_nodes_left_out_of_test_split(self, synthetic_problem):
        graph, data = synthetic_problem
        isolated, _, cold = coldstart_split(graph, data, 20.0)
        unlabeled = cold.test_idx[:5]
        labels = data.labels.copy()
        labels[unlabeled] = -1
        partial = dataclasses.replace(data, labels=labels,
                                      test_idx=np.setdiff1d(data.test_idx, unlabeled))
        _, _, partial_cold = coldstart_split(graph, partial, 20.0)
        np.testing.assert_array_equal(partial_cold.test_idx,
                                      np.setdiff1d(cold.test_idx, unlabeled))

    def test_trials_score_the_cold_test_split(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        config_for = suite_config_for(alpha=0.05, beta=5e-5)
        cfg = config_for("orthoreg")
        scored = []

        def recording(config, g, d, **kwargs):
            scored.append(d.test_idx.size)
            return run_trials(config, g, d, **kwargs)

        monkeypatch.setattr(experiments, "run_trials", recording)
        report = dict(SUITES["coldstart"](config_for, graph, data, ratios=[]))["orthoreg"]
        _, reduced, cold = coldstart_split(graph, data)
        assert report.per_trial == run_trials(cfg, reduced, cold).per_trial
        assert scored == [cold.test_idx.size] * 3  # orthoreg, mlp and gcn rows


class TestResolveRegularizer:
    def test_given_strength_kept_and_missing_one_from_dataset_table(self):
        spec = resolve_regularizer({"kind": "orthoreg", "beta": 5e-5}, "data/Cora/")
        assert (spec.alpha, spec.beta) == (2e-3, 5e-5)

    def test_unknown_dataset_falls_back(self):
        spec = resolve_regularizer({"kind": "orthoreg"}, "data/elsewhere")
        assert (spec.alpha, spec.beta) == (1e-3, 1e-6)

    def test_given_strengths_win(self):
        spec = resolve_regularizer({"kind": "orthoreg", "alpha": 0.0, "beta": 3e-4}, "cora")
        assert (spec.alpha, spec.beta) == (0.0, 3e-4)

    def test_laplacian_lam_default(self):
        assert resolve_regularizer({"kind": "laplacian"}, "x").lam == 0.1

    @pytest.mark.parametrize("kind", ["preg", "corr_identity"])
    def test_strength_without_default_must_be_given(self, kind):
        with pytest.raises(ConfigError, match="lam"):
            resolve_regularizer({"kind": kind}, "cora")
        assert resolve_regularizer({"kind": kind, "lam": 0.2}, "cora").lam == 0.2

    def test_unread_strengths_untouched(self):
        assert resolve_regularizer({}, "cora") == RegularizerSpec()

    @pytest.mark.parametrize("kind", list(REGULARIZERS))
    def test_every_kind_dispatches_to_its_function_and_resolves_its_defaults(self, kind, rng):
        defaults = REGULARIZERS[kind].settings
        needed = [s for s, default in defaults.items() if default is None]
        if needed:
            with pytest.raises(ConfigError, match=f"needs {needed[0]}"):
                resolve_regularizer({"kind": kind}, "elsewhere")
        given = {s: 0.25 for s in needed}
        spec = resolve_regularizer({"kind": kind, **given}, "elsewhere")
        assert spec.settings() == {"kind": kind, **defaults, **given}
        unread = next(s for s in ("lam", "alpha") if s not in defaults)
        with pytest.raises(ConfigError, match=f"^regularizer '{kind}' does not read {unread}$"):
            resolve_regularizer({"kind": kind, **given, unread: 0.5}, "elsewhere")
        if kind == "orthoreg":
            assert (spec.hops, spec.pooling) == (2, reg.POOL_AVERAGE)

        graph, _ = sbm_graph(12, seed=2)
        ops = {op: normalize(graph, op) for op in ("laplacian", "sym", "rw")}
        h = rng.standard_normal((12, 3))
        direct = {"none": lambda: (0.0, None),
                  "laplacian": lambda: reg.laplacian_reg(h, ops["laplacian"], spec.lam),
                  "preg": lambda: reg.p_reg(h, ops["sym"], spec.lam),
                  "corr_identity": lambda: reg.corr_identity_reg(h, spec.lam),
                  "orthoreg": lambda: reg.orthoreg_loss(h, ops["rw"], spec)}[kind]()
        value, grad = reg.regularizer_value_grad(h, spec, ops)
        assert value == direct[0]
        assert grad is direct[1] is None or np.array_equal(grad, direct[1])


class TestRobustness:
    def test_zero_ratio_reproduces_transductive_run(self, synthetic_problem):
        graph, data = synthetic_problem
        cfg = small_config("orthoreg", alpha=0.05, beta=5e-5)
        sweep = dict(SUITES["robustness"](lambda kind: cfg, graph, data, ratios=[0.0]))
        base = run_trials(cfg, graph, data)
        assert sweep["orthoreg@0.00"].per_trial == base.per_trial

    def test_full_masking_still_finite(self, synthetic_problem):
        graph, data = synthetic_problem
        cfg = small_config("orthoreg", alpha=0.05, beta=5e-5)
        sweep = dict(SUITES["robustness"](lambda kind: dataclasses.replace(cfg, trials=1),
                                          graph, data, ratios=[1.0]))
        acc = sweep["orthoreg@1.00"].mean_acc
        assert np.isfinite(acc)
        assert acc >= 0.15  # above floor even with the structure gone

    def test_bad_ratio_rejected(self, synthetic_problem):
        graph, data = synthetic_problem
        with pytest.raises(ConfigError):
            SUITES["robustness"](lambda kind: small_config("none"), graph, data, ratios=[1.2])


class TestAblation:
    def test_rows_present_and_t2_aliases_baseline(self, synthetic_problem):
        graph, data = synthetic_problem
        base = small_config("orthoreg", alpha=0.05, beta=5e-5, hops=2)
        rows = dict(SUITES["table3"](lambda kind: base, graph, data, ratios=[]))
        assert set(rows) == {"baseline", "alpha=0", "beta=0", "T=1", "T=2", "T=3"}
        assert rows["T=2"] is rows["baseline"]

    def test_variant_equal_to_an_earlier_row_reuses_its_report(self, synthetic_problem,
                                                              monkeypatch):
        graph, data = synthetic_problem
        base = small_config("orthoreg", alpha=0.0, beta=5e-5, hops=1)
        trained = []
        monkeypatch.setattr(experiments, "run_trials",
                            lambda config, g, d: trained.append(config.regularizer) or object())
        rows = SUITES["table3"](lambda kind: base, graph, data, ratios=[])
        reports = dict(rows)
        assert [label for label, _ in rows] == ["baseline", "alpha=0", "beta=0", "T=1", "T=2",
                                                "T=3"]
        assert reports["alpha=0"] is reports["T=1"] is reports["baseline"]
        assert [(spec.alpha, spec.beta, spec.hops) for spec in trained] == [
            (0.0, 5e-5, 1), (0.0, 0.0, 1), (0.0, 5e-5, 2), (0.0, 5e-5, 3)]

    def test_requires_orthoreg_base(self, synthetic_problem):
        graph, data = synthetic_problem
        with pytest.raises(ShapeMismatch):
            SUITES["table3"](lambda kind: small_config("none"), graph, data, ratios=[])


class TestComparators:
    def test_sgc_zero_steps_is_plain_logistic_regression(self, synthetic_problem):
        graph, data = synthetic_problem
        report = sgc_comparator(graph, data, k=0, trials=2)
        cfg = TrainConfig(regularizer=RegularizerSpec(kind="none"), lr=0.1,
                          dropout_p=0.0, weight_decay=5e-6, epochs=150,
                          dims=[data.n_features, data.n_classes], seed=0, trials=2)
        direct = run_trials(cfg, graph, data)
        assert report.per_trial == direct.per_trial

    def test_sgc_propagation_helps_on_homophilous_graph(self, synthetic_problem):
        graph, data = synthetic_problem
        k0 = sgc_comparator(graph, data, k=0, trials=2)
        k2 = sgc_comparator(graph, data, k=2, trials=2)
        assert k2.mean_acc > k0.mean_acc + 0.1

    def test_gcn_gradients_match_finite_differences(self, rng):
        # once on the supervised loss alone, once with <G, H> added, H being
        # the last hidden layer and G going down the propagated layers as
        # external_grad_h
        g, _ = sbm_graph(6, n_blocks=2, intra_p=0.8, inter_p=0.3, seed=0)
        op = normalize(g, "sym")
        params = init_mlp([3, 4, 2], seed=1)
        weights, biases = params.layer_weights, params.layer_biases
        x = rng.standard_normal((6, 3))
        labels = rng.integers(0, 2, size=6)
        idx = np.array([0, 2, 5])

        for grad_h in (None, rng.standard_normal((6, 4))):
            _, logits, cache = forward(params, x, op=op)
            _, grad_logits = cross_entropy(logits, labels, idx)
            grads = backward(params, cache, grad_logits, grad_h, op=op)
            grad_ws, grad_bs = grads.weight_grads, grads.bias_grads

            def objective(grad_h=grad_h):
                h, lg, _ = forward(params, x, op=op)
                val = cross_entropy(lg, labels, idx)[0]
                return val if grad_h is None else val + float(np.sum(grad_h * h))

            for li in range(2):
                w = weights[li]

                def f_w(wv, w=w, objective=objective):
                    saved = w.copy()
                    w[:] = wv
                    val = objective()
                    w[:] = saved
                    return val

                assert rel_err(grad_ws[li], finite_difference(f_w, w.copy())) < 1e-4
                b = biases[li]

                def f_b(bv, b=b, objective=objective):
                    saved = b.copy()
                    b[:] = bv
                    val = objective()
                    b[:] = saved
                    return val

                assert rel_err(grad_bs[li], finite_difference(f_b, b.copy())) < 1e-4

    def test_gcn_weight_decay_is_a_layer0_l2_term(self, synthetic_problem, monkeypatch):
        # train(..., convolve=True)'s first step against the oracle's
        # convolution, whose backward adds the L2 term to layer 0
        graph, data = synthetic_problem
        dims = [data.n_features, 16, data.n_classes]
        cfg = dataclasses.replace(GCN_CONFIG, dims=dims, seed=3, epochs=1)
        steps = []
        original = experiments.adam_step

        def capturing(params, grads, state):
            steps.append(([w.copy() for w in grads.weight_grads],
                          [b.copy() for b in grads.bias_grads], state.weight_decay))
            return original(params, grads, state)

        monkeypatch.setattr(experiments, "adam_step", capturing)
        train(cfg, graph, data, convolve=True)
        (grad_ws, grad_bs, adam_decay), = steps
        assert adam_decay == 0.0

        params = init_mlp(dims, seed=cfg.seed)
        op = experiments._renormalized_operator(graph)
        logits, cache = oracle.gcn_forward(op, params.layer_weights, params.layer_biases,
                                           data.features, dropout_p=cfg.dropout_p,
                                           seed=experiments._dropout_seed(cfg.seed, 1),
                                           train_mode=True)
        _, grad_logits = cross_entropy(logits, data.labels, data.train_idx)
        old_ws, old_bs = oracle.gcn_backward(op, params.layer_weights, cache, grad_logits,
                                             cfg.weight_decay)
        assert cfg.weight_decay > 0.0
        for a, b in zip([*grad_ws, *grad_bs], [*old_ws, *old_bs]):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_gcn_beats_chance_on_easy_graph(self, synthetic_problem):
        graph, data = synthetic_problem
        report = gcn_comparator(graph, data, trials=2)
        assert report.mean_acc > 0.5

    @pytest.mark.parametrize("comparator", [
        lambda g, d: gcn_comparator(g, d, trials=3),
        lambda g, d: sgc_comparator(g, d, k=1, trials=3),
    ], ids=["gcn", "sgc"])
    def test_every_trial_trains_through_train(self, synthetic_problem, monkeypatch,
                                              comparator):
        graph, data = synthetic_problem
        calls = []
        original = experiments.train

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "train", counting)
        report = comparator(graph, data)
        assert len(calls) == 3
        assert len(report.per_trial) == 3

    def test_gcn_trials_run_on_their_own_graphs(self, synthetic_problem):
        graph, data = synthetic_problem
        edgeless = mask_edges(graph, 1.0, seed=0)
        seen = []

        def per_trial(trial):
            seen.append(trial)
            return edgeless

        report = gcn_comparator(graph, data, trials=2, graph_per_trial=per_trial)
        assert sorted(seen) == [0, 1]
        direct = gcn_comparator(edgeless, data, trials=2)
        assert report.per_trial == direct.per_trial
        full = gcn_comparator(graph, data, trials=2)
        assert report.per_trial != full.per_trial

    def test_diverging_gcn_raises_from_shared_check(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        monkeypatch.setattr(experiments, "GCN_CONFIG",
                            dataclasses.replace(experiments.GCN_CONFIG, lr=1e200))
        with np.errstate(all="ignore"), \
                pytest.raises(Divergence, match="activations became non-finite at epoch 2"):
            gcn_comparator(graph, data, trials=1)

    def test_gcn_forward_checks_its_input(self, synthetic_problem):
        graph, data = synthetic_problem
        op = normalize(graph, "sym")
        params = init_mlp([data.n_features, 4, data.n_classes], seed=0)
        bad = data.features.copy()
        bad[3, 1] = np.nan
        for x in (bad, data.features[:-1]):
            with pytest.raises(ShapeMismatch):
                forward(params, x, op=op)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(lr=-1.0), "lr"), (dict(dropout_p=1.0), "dropout_p"),
        (dict(weight_decay=-1.0), "weight_decay"), (dict(hidden=0), "hidden"),
        (dict(early_stop_patience=-1), "early_stop_patience"),
    ])
    def test_gcn_arguments_checked_like_train_config(self, synthetic_problem, monkeypatch,
                                                     kwargs, field):
        # TrainConfig is mutable, so a bad value can be set on GCN_CONFIG
        # after construction; the comparator's own config still rejects it
        graph, data = synthetic_problem
        bad = dataclasses.replace(experiments.GCN_CONFIG)
        for name, value in kwargs.items():
            setattr(bad, name, value)
        monkeypatch.setattr(experiments, "GCN_CONFIG", bad)
        with pytest.raises(ConfigError, match=field):
            gcn_comparator(graph, data, trials=1)


class TestTuner:
    def test_grid_shape_and_best_cell(self, synthetic_problem):
        graph, data = synthetic_problem
        base = TrainConfig(regularizer=RegularizerSpec(kind="orthoreg", alpha=0.1,
                                                       beta=1e-4, hops=2),
                           epochs=30, hidden=16, embedding=16,
                           early_stop_patience=0, seed=0)
        result = tune_coarse_grid(graph, data, alphas=(0.05, 0.2), ratios=(1e2, 1e3),
                                  base_config=base)
        assert len(result["table"]) == 4
        assert result["best"] in result["table"]
        assert result["best"]["val_acc"] == max(c["val_acc"] for c in result["table"])

    def test_every_cell_keeps_the_base_spec(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        base = TrainConfig(regularizer=RegularizerSpec(
            kind="orthoreg", alpha=0.1, beta=1e-4, hops=3,
            pooling="second_hop_only"))
        specs = []

        def recording(cfg, graph, data):
            specs.append(cfg.regularizer)
            return None, SimpleNamespace(best_val_acc=0.5, best_test_acc=0.5)

        monkeypatch.setattr(experiments, "train", recording)
        result = tune_coarse_grid(graph, data, base_config=base)
        assert len(specs) == len(result["table"]) == 12
        for spec, cell in zip(specs, result["table"]):
            assert spec == dataclasses.replace(base.regularizer, alpha=cell["alpha"],
                                               beta=cell["beta"])

    def test_tied_val_acc_picks_the_first_cell(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        val_accs = iter([0.5, 0.7, 0.6, 0.7])
        monkeypatch.setattr(experiments, "train", lambda cfg, graph, data: (
            None, SimpleNamespace(best_val_acc=next(val_accs), best_test_acc=0.5)))
        result = tune_coarse_grid(graph, data, alphas=(0.05, 0.2), ratios=(1e2, 1e3))
        assert result["best"] == result["table"][1]
        assert result["best"] != result["table"][3]


class TestInferenceBenchmark:
    def test_row_schema_and_positive_times(self, synthetic_problem):
        graph, data = synthetic_problem
        rows = inference_benchmark(graph, data, depths=(2, 3), width=16, reps=3)
        assert [r["depth"] for r in rows] == [2, 3]
        for r in rows:
            assert r["mlp_s"] > 0 and r["gcn_s"] > 0
            assert r["gcn_over_mlp"] == pytest.approx(r["gcn_s"] / r["mlp_s"])

    def test_depth_must_be_positive(self, synthetic_problem):
        graph, data = synthetic_problem
        with pytest.raises(ConfigError, match="depth"):
            inference_benchmark(graph, data, depths=(0,))

    def test_reps_must_be_positive(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        calls = self.record_passes(monkeypatch)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="reps"):
                inference_benchmark(graph, data, depths=(2,), width=16, reps=0)
        assert calls == []

    @staticmethod
    def record_passes(monkeypatch):
        """Patch forward to append ("mlp"|"gcn", depth) before running; a
        graph convolution's call is the one given an ``op``."""
        calls = []
        original = experiments.forward

        def recording(params, x, **kwargs):
            kind = "mlp" if kwargs.get("op") is None else "gcn"
            calls.append((kind, len(params.layer_weights)))
            return original(params, x, **kwargs)

        monkeypatch.setattr(experiments, "forward", recording)
        return calls

    def test_warm_up_round_then_reps_interleaved_rounds(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        calls = self.record_passes(monkeypatch)
        rows = inference_benchmark(graph, data, depths=(2, 3), width=16, reps=3)
        assert calls == [("mlp", 2), ("gcn", 2), ("mlp", 3), ("gcn", 3)] * 4
        assert [r["depth"] for r in rows] == [2, 3]

    def test_every_depth_is_checked_before_any_forward(self, synthetic_problem, monkeypatch):
        graph, data = synthetic_problem
        calls = self.record_passes(monkeypatch)
        with pytest.raises(ConfigError, match="depth"):
            inference_benchmark(graph, data, depths=(2, 0), width=16, reps=3)
        assert calls == []


class TestWriters:
    def test_metrics_jsonl_schema(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        cfg = TrainConfig(regularizer=RegularizerSpec(kind="none"), epochs=5,
                          hidden=8, embedding=8, early_stop_patience=0, seed=0)
        _, history = train(cfg, graph, data)
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(history, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "sup_loss", "reg_loss", "val_acc", "test_acc"}

    def test_spectrum_csv_rows(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        cfg = TrainConfig(regularizer=RegularizerSpec(kind="none"), epochs=4,
                          hidden=8, embedding=8, eigens_every=2,
                          early_stop_patience=0, seed=0)
        _, history = train(cfg, graph, data)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,index,ratio,nesum"
        assert len(lines) == 1 + 2 * 8
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "1"
        assert float(first[2]) == pytest.approx(1.0)

    def test_report_json_schema(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        report = run_trials(small_config("none"), graph, data)
        path = tmp_path / "report.json"
        write_json(path, report.to_dict())
        data_out = json.loads(path.read_text())
        assert set(data_out) >= {"mean", "std", "trials", "config", "wall_clock_s"}
        assert len(data_out["trials"]) == 2
