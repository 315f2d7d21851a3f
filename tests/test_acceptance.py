"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(visible with ``pytest -s`` or in the captured output of failing runs).

Criteria that require the public citation benchmarks (4, 5, 6, 8, 9, 10 and
the heterophily smoke test) skip with an explicit reason unless the
canonical dataset directories exist under $ORTHOREG_DATA (default
``./data``); the build environment cannot fetch them. Everything else runs
self-contained on synthetic inputs.
"""

import os
import time

import numpy as np
import pytest

from conftest import dataset_dir, finite_difference, rel_err, require_dataset
from orthoreg.collapse import (
    build_p,
    closed_form_trajectory,
    free_embedding_optimize,
    largest_gap_split,
    verify_ratio_monotonicity,
    verify_spectrum_identity,
    whiten,
)
from orthoreg.experiments import (
    DEFAULT_HYPERS,
    SUITES,
    TrainConfig,
    gcn_comparator,
    inference_benchmark,
    run_trials,
    sgc_comparator,
    train,
)
from orthoreg.graphio import Dataset, homophily_ratio, load_dataset, normalize
from orthoreg.net import backward, cross_entropy, forward, init_mlp
from orthoreg.reg import RegularizerSpec, laplacian_reg, regularizer_value_grad
from orthoreg.synth import random_graph, ring_graph, sbm_graph
from orthoreg.tensor import sym_eigvals


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"{criterion} failed: {detail}"


def cora_train_config(spec: RegularizerSpec, seed: int = 0, **overrides) -> TrainConfig:
    kwargs = dict(epochs=300, early_stop_patience=100, seed=seed, trials=10)
    kwargs.update(overrides)
    return TrainConfig(regularizer=spec, **kwargs)


def cora_config_for(kind: str) -> TrainConfig:
    """A SUITES ``config_for``: orthoreg with Cora's (alpha, beta) and T=2,
    any other kind with its spec defaults."""
    alpha, beta = DEFAULT_HYPERS["cora"]
    spec = (RegularizerSpec(kind=kind, alpha=alpha, beta=beta, hops=2) if kind == "orthoreg"
            else RegularizerSpec(kind=kind))
    return cora_train_config(spec)


class TestCriterion1GradientFidelity:
    def test_gradient_fidelity_all_regularizers_and_full_network(self, rng):
        t0 = time.time()
        worst = 0.0
        for i in range(20):
            n = int(rng.integers(8, 21))
            d = int(rng.integers(2, 9))
            g, _ = sbm_graph(n, intra_p=0.5, inter_p=0.15, seed=100 + i)
            ops = {
                "laplacian": normalize(g, "laplacian"),
                "sym": normalize(g, "sym"),
                "rw": normalize(g, "rw"),
            }
            h = rng.standard_normal((n, d))
            specs = [
                RegularizerSpec(kind="laplacian", lam=0.3),
                RegularizerSpec(kind="preg", lam=0.7),
                RegularizerSpec(kind="corr_identity", lam=0.5),
                RegularizerSpec(kind="orthoreg", alpha=1e-3, beta=1e-6, hops=2),
            ]
            for spec in specs:
                _, grad = regularizer_value_grad(h, spec, ops)
                fd = finite_difference(
                    lambda hh: regularizer_value_grad(hh, spec, ops)[0], h
                )
                worst = max(worst, rel_err(grad, fd))

        # full-network objective: supervised + injected regularizer gradient
        checked = 0
        attempt = 0
        while checked < 20:
            i = attempt
            attempt += 1
            n, f, d, c = 10, 4, 5, 3
            g, _ = sbm_graph(n, intra_p=0.5, inter_p=0.2, seed=300 + i)
            lap = normalize(g, "laplacian")
            params = init_mlp([f, 6, d, c], seed=i)
            for b in params.layer_biases:
                b[:] = rng.uniform(0.05, 0.15, size=b.shape)
            x = rng.standard_normal((n, f))
            labels = rng.integers(0, c, size=n)
            idx = rng.choice(n, size=5, replace=False)

            def objective(p):
                h, logits, _ = forward(p, x)
                sup, _ = cross_entropy(logits, labels, idx)
                reg, _ = laplacian_reg(h, lap, 0.05)
                return sup + reg

            h, logits, cache = forward(params, x)
            # central differences are meaningless across a ReLU kink; only
            # check instances whose gates sit safely away from zero
            pres = [inp @ w + b for inp, w, b in
                    zip(cache["inputs"], params.layer_weights, params.layer_biases)]
            if min(float(np.abs(pre).min()) for pre in pres) < 1e-3:
                continue
            checked += 1
            _, grad_logits = cross_entropy(logits, labels, idx)
            _, grad_h = laplacian_reg(h, lap, 0.05)
            grads = backward(params, cache, grad_logits, grad_h)
            for li in range(params.n_layers):
                for arr, ga in [
                    (params.layer_weights[li], grads.weight_grads[li]),
                    (params.layer_biases[li], grads.bias_grads[li]),
                ]:

                    def f_arr(v, arr=arr):
                        saved = arr.copy()
                        arr[:] = v
                        out = objective(params)
                        arr[:] = saved
                        return out

                    worst = max(worst, rel_err(ga, finite_difference(f_arr, arr.copy())))
        elapsed = time.time() - t0
        report(
            "criterion-1 gradient fidelity",
            worst < 1e-4 and elapsed < 60.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2ClosedFormRatios:
    def test_singular_value_ratios_decay_at_analytic_rate(self, rng):
        g, _ = sbm_graph(40, n_blocks=2, intra_p=0.5, inter_p=0.05, seed=7)
        lap = normalize(g, "laplacian")
        x = whiten(rng.standard_normal((40, 8)))
        p = build_p(x, lap)
        eigs = sym_eigvals(p)
        spread = float(eigs[0] - eigs[-1])
        t_final = 12.0 / spread
        times = np.linspace(0.0, t_final, 50)
        run = closed_form_trajectory(p, np.eye(8), times, sign=+1)
        d = largest_gap_split(eigs)
        verdict = verify_ratio_monotonicity(run, d, tol=1e-9)
        analytic = float(np.exp(-(eigs[d - 1] - eigs[d]) * t_final))
        gap_err = abs(verdict.vanishing_ratio_estimate - analytic) / analytic
        report(
            "criterion-2 closed-form ratio decay",
            verdict.monotone_ratio_ok and gap_err < 0.01,
            f"monotone={verdict.monotone_ratio_ok}, across-gap rel err {gap_err:.2e}",
        )


class TestCriterion3SpectrumIdentity:
    def test_whitened_covariance_matches_squared_singular_values(self, rng):
        g, _ = sbm_graph(40, n_blocks=2, intra_p=0.5, inter_p=0.05, seed=11)
        lap = normalize(g, "laplacian")
        x = whiten(rng.standard_normal((40, 6)))
        p = build_p(x, lap)
        eigs = sym_eigvals(p)
        times = np.linspace(0.0, 10.0 / float(eigs[0] - eigs[-1]), 25)
        run = closed_form_trajectory(p, np.eye(6), times, sign=+1)
        verdict = verify_spectrum_identity(x, run)
        err = verdict.details[-1]["lambda_sigma_sq_max_rel_err"]
        report(
            "criterion-3 covariance spectrum identity",
            err < 1e-8,
            f"max relative disagreement {err:.2e}",
        )


class TestCriterion4SpectraUnderSmoothing:
    def test_nesum_ordering_and_second_eigen_ratio_on_cora(self):
        path = require_dataset("cora")
        graph, data = load_dataset(path)
        nesums, ratio2 = {}, {}
        for lam in (0.0, 0.001, 0.1):
            per_seed_nesum, per_seed_ratio = [], []
            for seed in range(5):
                cfg = TrainConfig(
                    regularizer=RegularizerSpec(kind="laplacian", lam=lam),
                    epochs=100, early_stop_patience=0, eigens_every=100, seed=seed,
                )
                _, history = train(cfg, graph, data)
                rep = [r.eigen for r in history.records if r.eigen is not None][-1]
                per_seed_nesum.append(rep.nesum)
                per_seed_ratio.append(rep.ratio(2))
            nesums[lam] = float(np.mean(per_seed_nesum))
            ratio2[lam] = float(np.mean(per_seed_ratio))
        ordered = nesums[0.0] > nesums[0.001] > nesums[0.1]
        bounded = ratio2[0.001] <= 0.35 and ratio2[0.1] <= 0.35
        report(
            "criterion-4 smoothing collapses the spectrum",
            ordered and bounded,
            f"nesum={nesums}, ratio2={ratio2}",
        )


TABLE1_EXPECTED = {
    "cora": {"orthoreg": 84.7, "mlp": 59.7, "lap_reg": 60.3, "sgc": 81.0, "gcn": 82.2},
    "citeseer": {"orthoreg": 73.5, "mlp": 57.1, "lap_reg": 58.6, "sgc": 71.9, "gcn": 71.6},
    "pubmed": {"orthoreg": 82.8, "mlp": 68.4, "lap_reg": 68.7, "sgc": 78.9, "gcn": 79.3},
}


class TestCriterion5TransductiveBands:
    @pytest.mark.parametrize("name", ["cora", "citeseer", "pubmed"])
    def test_accuracy_bands(self, name):
        path = require_dataset(name)
        graph, data = load_dataset(path)
        alpha, beta = DEFAULT_HYPERS[name]
        rows = {
            "orthoreg": run_trials(
                cora_train_config(RegularizerSpec(kind="orthoreg", alpha=alpha,
                                                  beta=beta, hops=2)),
                graph, data,
            ).mean_acc,
            "mlp": run_trials(
                cora_train_config(RegularizerSpec(kind="none")), graph, data
            ).mean_acc,
            "lap_reg": run_trials(
                cora_train_config(RegularizerSpec(kind="laplacian", lam=1e-3)),
                graph, data,
            ).mean_acc,
            "sgc": sgc_comparator(graph, data, k=2, trials=10).mean_acc,
            "gcn": gcn_comparator(graph, data, trials=10).mean_acc,
        }
        failures = []
        for model, expected in TABLE1_EXPECTED[name].items():
            got = 100.0 * rows[model]
            if abs(got - expected) > 3.0:
                failures.append(f"{model}: {got:.1f} vs {expected} +-3.0")
        report(
            f"criterion-5 transductive bands ({name})",
            not failures,
            "; ".join(failures) or str({k: round(100 * v, 1) for k, v in rows.items()}),
        )


class TestCriterion6AblationOrdering:
    def test_component_ordering_on_cora(self):
        path = require_dataset("cora")
        graph, data = load_dataset(path)
        rows = dict(SUITES["table3"](cora_config_for, graph, data, ratios=[]))
        mlp = run_trials(cora_config_for("none"), graph, data)
        a0 = rows["alpha=0"].mean_acc
        b0 = rows["beta=0"].mean_acc
        full = rows["baseline"].mean_acc
        t1, t2, t3 = (rows[f"T={k}"].mean_acc for k in (1, 2, 3))
        ok = (a0 < mlp.mean_acc < b0 < full) and (t2 >= t1) and (t2 >= t3)
        report(
            "criterion-6 ablation ordering",
            ok,
            f"alpha0={a0:.3f} mlp={mlp.mean_acc:.3f} beta0={b0:.3f} full={full:.3f} "
            f"T=({t1:.3f},{t2:.3f},{t3:.3f})",
        )


class TestCriterion7FixedPoint:
    def test_free_embeddings_become_smooth_and_orthogonal(self):
        t0 = time.time()
        _, history = free_embedding_optimize(
            ring_graph(8), 8, 2, alpha=1e-2, beta=1e-5, steps=5000, lr=200.0, seed=0
        )
        final = history[-1]
        elapsed = time.time() - t0
        report(
            "criterion-7 smooth orthogonal fixed point",
            final["off_diag_norm"] < 0.05 and final["smoothness"] > 0.9
            and elapsed < 60.0,
            f"off-diag {final['off_diag_norm']:.4f}, smoothness "
            f"{final['smoothness']:.4f}, {elapsed:.1f}s",
        )


class TestCriterion8ColdStart:
    def test_isolated_node_accuracy_on_cora(self):
        path = require_dataset("cora")
        graph, data = load_dataset(path)
        rows = dict(SUITES["coldstart"](cora_config_for, graph, data, ratios=[]))
        ortho, mlp, gcn = rows["orthoreg"], rows["mlp"], rows["gcn"]
        o, m, g = 100 * ortho.mean_acc, 100 * mlp.mean_acc, 100 * gcn.mean_acc
        ok = (abs(o - 61.93) <= 3.5) and (o >= m + 6.0) and (o >= g + 4.0)
        report(
            "criterion-8 cold-start margins",
            ok,
            f"orthoreg={o:.2f} mlp={m:.2f} gcn={g:.2f}",
        )


class TestCriterion9Robustness:
    def test_masking_degrades_gcn_faster_on_cora(self):
        path = require_dataset("cora")
        graph, data = load_dataset(path)
        sweep = dict(SUITES["robustness"](cora_config_for, graph, data, ratios=[0.0, 0.2, 0.4]))
        failures = []
        for ratio in (0.2, 0.4):
            ortho_drop = sweep["orthoreg@0.00"].mean_acc - sweep[f"orthoreg@{ratio:.2f}"].mean_acc
            gcn_drop = sweep["gcn@0.00"].mean_acc - sweep[f"gcn@{ratio:.2f}"].mean_acc
            if not ortho_drop < gcn_drop:
                failures.append(
                    f"ratio {ratio}: drops {ortho_drop:.4f} !< {gcn_drop:.4f}"
                )
        report("criterion-9 masking robustness", not failures, "; ".join(failures))


class TestCriterion10SpectrumContrast:
    def test_top_spectrum_preserved_relative_to_smoothing_run(self):
        path = require_dataset("cora")
        graph, data = load_dataset(path)
        alpha, beta = DEFAULT_HYPERS["cora"]
        ratios = {}
        for key, spec in [
            ("orthoreg", RegularizerSpec(kind="orthoreg", alpha=alpha, beta=beta, hops=2)),
            ("laplacian", RegularizerSpec(kind="laplacian", lam=0.1)),
        ]:
            cfg = TrainConfig(regularizer=spec, epochs=100, early_stop_patience=0,
                              eigens_every=100, seed=0)
            _, history = train(cfg, graph, data)
            rep = [r.eigen for r in history.records if r.eigen is not None][-1]
            ratios[key] = rep.ratio(8)
        ok = ratios["orthoreg"] >= 2.0 * ratios["laplacian"]
        report(
            "criterion-10 top-spectrum contrast",
            ok,
            f"lambda8/lambda1: orthoreg={ratios['orthoreg']:.4f}, "
            f"laplacian(0.1)={ratios['laplacian']:.4f}",
        )


class TestCriterion11InferenceBenchmark:
    def test_feature_only_forward_outpaces_propagation(self, rng):
        path = dataset_dir("pubmed")
        if os.path.isdir(path):
            graph, data = load_dataset(path)
            source = "pubmed"
        else:
            # stand-in with the benchmark's dimensions; the property under
            # test is a machine-level cost comparison, not a data statistic
            n, f, c = 19717, 500, 3
            graph = random_graph(n, 44325, seed=0)
            data = Dataset(
                features=rng.standard_normal((n, f)),
                labels=rng.integers(0, c, size=n).astype(np.int64),
                n_classes=c,
                train_idx=np.arange(60),
                val_idx=np.arange(60, 560),
                test_idx=np.arange(560, 1560),
            )
            source = "synthetic stand-in"
        # wall-clock assertion on a shared machine: retry a transiently
        # loaded attempt, but demand both properties within one attempt
        attempts = []
        ok = False
        for _ in range(3):
            rows = inference_benchmark(graph, data, depths=(2, 3, 4), width=128,
                                       reps=20)
            by_depth = {r["depth"]: round(r["gcn_over_mlp"], 3) for r in rows}
            attempts.append(by_depth)
            strictly_faster = all(v > 1.0 for v in by_depth.values())
            widening = by_depth[4] > by_depth[2]
            if strictly_faster and widening:
                ok = True
                break
        report(
            "criterion-11 inference benchmark",
            ok,
            f"{source}; gcn/mlp by depth per attempt {attempts}",
        )


class TestHeterophilySmoke:
    def test_chameleon_homophily_ratio(self):
        path = require_dataset("chameleon")
        graph, data = load_dataset(path)
        phi = homophily_ratio(graph, data.labels)
        report("heterophily smoke", abs(phi - 0.25) <= 0.02, f"ratio {phi:.3f}")
