#!/usr/bin/env python3
"""Feature-only classifiers on a homophilous synthetic graph.

The dataset has noisy class-prototype features and a strongly homophilous
structure, so features alone are mediocre while the graph carries signal.
The cross-correlation regularizer injects that structure into the MLP at
training time without touching the graph at inference, beating the plain
MLP; the plain smoothness penalties collapse the embedding spectrum
instead and do not help at this scale.
"""

from orthoreg.experiments import RunReport, TrainConfig, run_trials
from orthoreg.graphio import homophily_ratio
from orthoreg.reg import RegularizerSpec
from orthoreg.synth import synthetic_dataset


def main():
    graph, data = synthetic_dataset(seed=0)
    print(f"{graph.n_nodes} nodes, {graph.n_edges} edges, "
          f"homophily {homophily_ratio(graph, data.labels):.2f}, "
          f"{data.n_classes} classes, {data.n_features} features\n")

    common = dict(epochs=200, hidden=32, embedding=32, early_stop_patience=60, seed=1,
                  trials=3)
    variants = [
        ("plain MLP", RegularizerSpec(kind="none")),
        ("smoothness penalty", RegularizerSpec(kind="laplacian", lam=1e-4)),
        ("decorrelation only", RegularizerSpec(kind="corr_identity", lam=0.01)),
        ("cross-correlation reg", RegularizerSpec(kind="orthoreg", alpha=0.2,
                                                  beta=2e-4, hops=2)),
    ]
    print(f"{'model':24s} {'test acc':>10s}")
    for name, spec in variants:
        report: RunReport = run_trials(TrainConfig(regularizer=spec, **common), graph, data)
        print(f"{name:24s} {report.mean_acc:8.3f} +- {report.std_acc:.3f}")


if __name__ == "__main__":
    main()
