"""Synthetic graphs and datasets for the dynamics lab, tests, and demos:
stochastic block models with class-correlated features, plus ring / path /
star primitives. GRAPHS names the graphs ``simulate --graph`` builds."""

from __future__ import annotations

import numpy as np

from .graphio import Dataset, SparseGraph, graph_from_edges, sample_splits


def ring_graph(n: int) -> SparseGraph:
    nodes = np.arange(n)
    edges = np.column_stack([nodes, (nodes + 1) % n])
    return graph_from_edges(n, edges)


def path_graph(n: int) -> SparseGraph:
    nodes = np.arange(n - 1)
    edges = np.column_stack([nodes, nodes + 1])
    return graph_from_edges(n, edges)


def star_graph(n_leaves: int) -> SparseGraph:
    leaves = np.arange(1, n_leaves + 1)
    edges = np.column_stack([np.zeros_like(leaves), leaves])
    return graph_from_edges(n_leaves + 1, edges)


def random_graph(n_nodes: int, n_edges: int, seed: int = 0) -> SparseGraph:
    """Uniform random simple graph with exactly ``n_edges`` undirected
    edges; O(m) memory, suitable for large benchmark graphs."""
    rng = np.random.default_rng(seed)
    chosen = set()
    while len(chosen) < n_edges:
        batch = rng.integers(0, n_nodes, size=(2 * (n_edges - len(chosen)) + 8, 2))
        for i, j in batch:
            if i == j:
                continue
            pair = (int(min(i, j)), int(max(i, j)))
            chosen.add(pair)
            if len(chosen) == n_edges:
                break
    return graph_from_edges(n_nodes, np.array(sorted(chosen), dtype=np.int64))


def sbm_graph(
    n_nodes: int = 40,
    n_blocks: int = 2,
    intra_p: float = 0.5,
    inter_p: float = 0.05,
    seed: int = 0,
):
    """Stochastic block model; returns (graph, block labels). Blocks are
    contiguous and as equal-sized as possible."""
    rng = np.random.default_rng(seed)
    labels = np.sort(np.arange(n_nodes) % n_blocks)
    iu, ju = np.triu_indices(n_nodes, k=1)
    p = np.where(labels[iu] == labels[ju], intra_p, inter_p)
    keep = rng.random(p.size) < p
    edges = np.column_stack([iu[keep], ju[keep]])
    return graph_from_edges(n_nodes, edges), labels


# simulate's graphs, each built from (n, seed); only sbm draws
GRAPHS = {"sbm": lambda n, seed: sbm_graph(n_nodes=n, seed=seed)[0],
          "ring": lambda n, seed: ring_graph(n), "path": lambda n, seed: path_graph(n),
          "star": lambda n, seed: star_graph(n - 1)}


def synthetic_dataset(
    n_nodes: int = 300,
    n_classes: int = 4,
    n_features: int = 32,
    intra_p: float = 0.12,
    inter_p: float = 0.003,
    noise: float = 3.5,
    labels_per_class: int = 20,
    n_val: int = 60,
    n_test: int = 120,
    seed: int = 0,
):
    """A homophilous node-classification problem: SBM structure whose blocks
    are the classes, features drawn as a class prototype plus isotropic
    noise. The noise level is chosen so features alone are informative but
    imperfect, leaving headroom for graph regularization to help. Splits come
    from graphio.sample_splits."""
    rng = np.random.default_rng(seed)
    graph, labels = sbm_graph(n_nodes, n_classes, intra_p, inter_p, seed=seed + 1)
    prototypes = rng.standard_normal((n_classes, n_features))
    features = prototypes[labels] + noise * rng.standard_normal((n_nodes, n_features))

    train_idx, val_idx, test_idx = sample_splits(labels, n_classes, labels_per_class,
                                                 n_val, n_test, rng)
    data = Dataset(
        features=features,
        labels=labels.astype(np.int64),
        n_classes=n_classes,
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
    )
    return graph, data
