#!/usr/bin/env python3
"""Cold-start isolation and the inference-cost comparison.

First the low-degree tail of a synthetic graph is stripped and the models
are scored on the isolated nodes alone (inference never sees the graph).
Then feature-only forward passes race propagation-based forward passes at
growing depth on a larger random graph: the propagation model pays a
per-layer sparse-product overhead that the feature-only model never does.
"""

import numpy as np

from orthoreg.experiments import TrainConfig, coldstart_split, inference_benchmark, run_trials
from orthoreg.graphio import Dataset
from orthoreg.reg import RegularizerSpec
from orthoreg.synth import random_graph, synthetic_dataset


def main():
    graph, data = synthetic_dataset(seed=0)
    common = dict(epochs=150, hidden=32, embedding=32, early_stop_patience=0,
                  trials=3, seed=1)
    isolated, reduced, cold = coldstart_split(graph, data, percentile=20.0)
    print("cold start: train on the reduced graph, score isolated nodes only "
          f"(isolated={isolated.size}, scored={cold.test_idx.size})")
    for name, spec in [
        ("cross-correlation reg", RegularizerSpec(kind="orthoreg", alpha=0.2,
                                                  beta=2e-4, hops=2)),
        ("plain MLP", RegularizerSpec(kind="none")),
    ]:
        report = run_trials(TrainConfig(regularizer=spec, **common), reduced, cold)
        print(f"  {name:24s} acc={report.mean_acc:.3f}")

    print("\ninference benchmark on a larger random graph (median of 10):")
    n, f, c = 8000, 300, 5
    rng = np.random.default_rng(0)
    big = random_graph(n, 20000, seed=1)
    bench_data = Dataset(
        features=rng.standard_normal((n, f)),
        labels=rng.integers(0, c, size=n).astype(np.int64),
        n_classes=c,
        train_idx=np.arange(50),
        val_idx=np.arange(50, 100),
        test_idx=np.arange(100, 200),
    )
    rows = inference_benchmark(big, bench_data, depths=(2, 3, 4), width=128, reps=10)
    print("depth  mlp_s     gcn_s     gcn/mlp")
    for r in rows:
        print(f"{r['depth']:4d}  {r['mlp_s']:.5f}   {r['gcn_s']:.5f}   "
              f"{r['gcn_over_mlp']:.2f}")


if __name__ == "__main__":
    main()
