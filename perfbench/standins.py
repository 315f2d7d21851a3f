"""Seeded stand-ins with the shapes of the paper's datasets.

Each stand-in is a planted-partition graph with class-correlated sparse
features, generated in O(edges + nnz) work: edge endpoints and feature
columns are drawn as whole arrays and de-duplicated with ``np.unique``, so
no step enumerates node pairs or loops over edges in Python. The
generator records the shape it actually produced and refuses to hand it
on when that shape drifts from its target.

The result is written as a canonical dataset directory (``edges.txt``,
``features.csv``, ``labels.csv``, ``meta.txt``, ``splits/``), which is all
the program under test ever sees of it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """The shape a stand-in must have."""

    name: str
    n_nodes: int
    n_features: int
    density: float
    n_edges: int
    homophily: float
    class_counts: tuple
    train_per_class: int
    n_val: int
    n_test: int
    binary: bool
    # share of each node's feature draws that come from its class's topic
    # words; sets how informative features are without the graph
    topic_share: float
    topic_words: int


# Class counts and homophily follow the public Cora graph.
CORA = Target(
    name="cora", n_nodes=2708, n_features=1433, density=0.013, n_edges=5278,
    homophily=0.81, class_counts=(351, 217, 418, 818, 426, 298, 180),
    train_per_class=20, n_val=500, n_test=1000, binary=True,
    topic_share=0.60, topic_words=120,
)
# The collapse lab's stochastic block model: 4 equal blocks on 400 nodes.
SBM400 = Target(
    name="sbm400", n_nodes=400, n_features=64, density=0.25, n_edges=2400,
    homophily=0.80, class_counts=(100, 100, 100, 100),
    train_per_class=20, n_val=160, n_test=160, binary=False,
    topic_share=0.70, topic_words=12,
)

DENSITY_REL_TOL = 0.05
HOMOPHILY_ABS_TOL = 0.03


class ShapeDrift(Exception):
    """The generated stand-in does not have its target's shape."""


@dataclass
class StandIn:
    edges: np.ndarray  # (m, 2) undirected pairs, i < j
    labels: np.ndarray
    rows: np.ndarray  # feature non-zeros in COO form, row-major sorted
    cols: np.ndarray
    vals: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray


def _unique_pairs_in_order(keys: np.ndarray) -> np.ndarray:
    """Distinct keys, kept in order of first appearance."""
    _, first = np.unique(keys, return_index=True)
    return keys[np.sort(first)]


def _planted_edges(rng, labels: np.ndarray, target: Target) -> np.ndarray:
    n = target.n_nodes
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=len(target.class_counts))
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    keys = np.empty(0, dtype=np.int64)
    while keys.size < target.n_edges:
        batch = int(1.2 * (target.n_edges - keys.size)) + 64
        u = rng.integers(0, n, size=batch)
        cu = labels[u]
        v = order[offsets[cu] + (rng.random(batch) * counts[cu]).astype(np.int64)]
        cross = rng.random(batch) >= target.homophily
        w = rng.integers(0, n, size=int(cross.sum()))
        # redraw cross-class endpoints that landed in the source's class
        while True:
            same = labels[w] == cu[cross]
            if not same.any():
                break
            w[same] = rng.integers(0, n, size=int(same.sum()))
        v[cross] = w
        keep = u != v
        lo = np.minimum(u[keep], v[keep])
        hi = np.maximum(u[keep], v[keep])
        keys = _unique_pairs_in_order(np.concatenate([keys, lo * n + hi]))
    keys = keys[: target.n_edges]
    return np.column_stack([keys // n, keys % n])


def _class_features(rng, labels: np.ndarray, target: Target):
    n, f = target.n_nodes, target.n_features
    n_classes = len(target.class_counts)
    topics = np.stack(
        [rng.choice(f, size=target.topic_words, replace=False) for _ in range(n_classes)]
    )
    nnz = int(round(target.density * n * f))
    keys = np.empty(0, dtype=np.int64)
    # draw until collisions are made up for, then trim to the exact count
    while keys.size < nnz:
        rows = rng.integers(0, n, size=int(1.1 * (nnz - keys.size)) + 64)
        from_topic = rng.random(rows.size) < target.topic_share
        cols = rng.integers(0, f, size=rows.size)
        pick = rng.integers(0, target.topic_words, size=int(from_topic.sum()))
        cols[from_topic] = topics[labels[rows[from_topic]], pick]
        keys = np.unique(np.concatenate([keys, rows * f + cols]))
    keys = np.sort(rng.choice(keys, size=nnz, replace=False))
    rows, cols = keys // f, keys % f
    if target.binary:
        vals = np.ones(keys.size)
    else:
        # TF-IDF-like weights: positive, skewed, three decimals
        vals = np.maximum(np.round(rng.gamma(2.0, 0.04, size=keys.size), 3), 0.001)
    return rows, cols, vals


def _splits(rng, labels: np.ndarray, target: Target):
    train = []
    for c in range(len(target.class_counts)):
        members = np.flatnonzero(labels == c)
        train.append(rng.choice(members, size=target.train_per_class, replace=False))
    train_idx = np.sort(np.concatenate(train))
    rest = rng.permutation(np.setdiff1d(np.arange(target.n_nodes), train_idx))
    val_idx = np.sort(rest[: target.n_val])
    test_idx = np.sort(rest[target.n_val: target.n_val + target.n_test])
    return train_idx, val_idx, test_idx


def generate(target: Target, seed: int) -> StandIn:
    """Draw one stand-in; the same (target, seed) gives the same arrays."""
    rng = np.random.default_rng([seed, target.n_nodes])
    labels = rng.permutation(
        np.repeat(np.arange(len(target.class_counts)), target.class_counts)
    ).astype(np.int64)
    edges = _planted_edges(rng, labels, target)
    rows, cols, vals = _class_features(rng, labels, target)
    train_idx, val_idx, test_idx = _splits(rng, labels, target)
    return StandIn(edges, labels, rows, cols, vals, train_idx, val_idx, test_idx)


def measured_shape(s: StandIn, target: Target) -> dict:
    """The shape the stand-in actually has."""
    n, f = target.n_nodes, target.n_features
    lab = s.labels
    return {
        "n_nodes": int(lab.size),
        "n_features": f,
        "density": float(s.rows.size / (n * f)),
        "n_edges": int(s.edges.shape[0]),
        "homophily": float(np.mean(lab[s.edges[:, 0]] == lab[s.edges[:, 1]])),
        "class_counts": [int(c) for c in np.bincount(lab)],
        "isolated_nodes": int(n - np.unique(s.edges).size),
        "split_sizes": [int(s.train_idx.size), int(s.val_idx.size), int(s.test_idx.size)],
    }


def check_shape(shape: dict, target: Target) -> None:
    """Raise ShapeDrift when the measured shape is off target."""
    problems = []
    for key in ("n_nodes", "n_features", "n_edges"):
        if shape[key] != getattr(target, key):
            problems.append(f"{key}={shape[key]} (target {getattr(target, key)})")
    if abs(shape["density"] / target.density - 1.0) > DENSITY_REL_TOL:
        problems.append(f"density={shape['density']:.4f} (target {target.density})")
    if abs(shape["homophily"] - target.homophily) > HOMOPHILY_ABS_TOL:
        problems.append(f"homophily={shape['homophily']:.3f} (target {target.homophily})")
    if tuple(shape["class_counts"]) != tuple(target.class_counts):
        problems.append(f"class_counts={shape['class_counts']}")
    expected_splits = [target.train_per_class * len(target.class_counts),
                       target.n_val, target.n_test]
    if shape["split_sizes"] != expected_splits:
        problems.append(f"split_sizes={shape['split_sizes']}")
    if problems:
        raise ShapeDrift(f"{target.name} stand-in drifted: " + "; ".join(problems))


def _write_features(path, s: StandIn, target: Target) -> None:
    """Sparse-aware CSV writer: a row starts as all '0' and only its
    non-zeros are formatted."""
    f = target.n_features
    fmt = "{:.0f}".format if target.binary else "{:.3f}".format
    starts = np.searchsorted(s.rows, np.arange(target.n_nodes + 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(target.n_nodes):
            lo, hi = starts[i], starts[i + 1]
            cells = ["0"] * f
            for c, v in zip(s.cols[lo:hi].tolist(), s.vals[lo:hi].tolist()):
                cells[c] = fmt(v)
            fh.write(",".join(cells))
            fh.write("\n")


def _write_ints(path, values) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(str(v) for v in np.asarray(values).tolist()))
        fh.write("\n")


def write_dataset(directory, s: StandIn, target: Target) -> None:
    """Write the canonical dataset directory layout."""
    os.makedirs(os.path.join(directory, "splits"), exist_ok=True)
    with open(os.path.join(directory, "edges.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(f"# n_nodes={target.n_nodes}\n")
        fh.write("\n".join(f"{i} {j}" for i, j in s.edges.tolist()))
        fh.write("\n")
    _write_features(os.path.join(directory, "features.csv"), s, target)
    _write_ints(os.path.join(directory, "labels.csv"), s.labels)
    with open(os.path.join(directory, "meta.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(f"n_nodes={target.n_nodes}\nn_classes={len(target.class_counts)}\n")
    for name, idx in (("train", s.train_idx), ("val", s.val_idx), ("test", s.test_idx)):
        _write_ints(os.path.join(directory, "splits", f"{name}.txt"), idx)


def materialize(target: Target, seed: int, directory) -> dict:
    """Generate the stand-in for ``seed``, check its shape and write it to
    ``directory``; returns the measured shape."""
    s = generate(target, seed)
    shape = measured_shape(s, target)
    check_shape(shape, target)
    write_dataset(directory, s, target)
    return shape
