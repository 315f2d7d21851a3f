"""Graph and node-data loading, normalized operators, and the graph
transformations the experiments need (edge masking, low-degree isolation).

Graphs are undirected and stored in canonical CSR form: both arcs of every
edge are present, column indices are strictly increasing within a row, and
self-loops are dropped at load time. The dataset directory layout is plain
text: ``edges.txt`` (one "src dst" pair per line, ``#`` comments allowed),
``features.csv`` (N x F comma-separated reals, no header), ``labels.csv``
(one integer per row, -1 = unlabeled), ``splits/{train,val,test}.txt`` (one
index per line), and an optional ``meta.txt`` with ``n_nodes=`` /
``n_classes=`` overrides. An optional ``node_ids.txt`` sidecar (one
original id per line) remaps arbitrary ids to dense 0..N-1.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, EmptyGraph, MissingFile, ParseError, ShapeMismatch

log = logging.getLogger(__name__)

SYM_KIND = "sym"
RW_KIND = "rw"
LAPLACIAN_KIND = "laplacian"

# Training feeds features at most this dense to the first layer as CSR.
# Measured with one BLAS thread on a 2708x1433 matrix (Cora's shape) by a
# 256-wide layer: CSR X@W0 takes 8 ms at 1.3 % density against 50 ms
# dense, and both products of layer 0 break even with dense at about 8-10 %
# density; 5 % leaves a margin for column skew.
SPARSE_INPUT_MAX_DENSITY = 0.05


@dataclass(frozen=True)
class SparseGraph:
    """Undirected, unweighted adjacency in canonical CSR."""

    n_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        """Structural degree of each node (its row length), as floats."""
        return np.diff(self.row_offsets).astype(np.float64)

    @property
    def n_arcs(self) -> int:
        """Number of stored directed arcs (2x the undirected edge count)."""
        return int(self.col_indices.size)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.n_arcs // 2

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (np.ones(self.n_arcs), self.col_indices, self.row_offsets),
            shape=(self.n_nodes, self.n_nodes),
        )

    def arc_endpoints(self):
        """(src, dst) arrays, one entry per stored arc."""
        src = np.repeat(np.arange(self.n_nodes), np.diff(self.row_offsets))
        return src, self.col_indices.copy()

    def undirected_edges(self) -> np.ndarray:
        """Unique (i, j) pairs with i < j, in canonical order."""
        src, dst = self.arc_endpoints()
        keep = src < dst
        return np.column_stack([src[keep], dst[keep]])


def text_lines(path, error=ParseError) -> list:
    """The lines of the UTF-8 text file ``path``. Bytes that do not decode
    raise ``error`` naming the file; a bare UnicodeDecodeError names none."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _csr_graph(n_nodes: int, src, dst) -> SparseGraph:
    """The graph whose arcs are the (src, dst) pairs, deduplicated and with
    sorted column indices."""
    adj = sp.coo_matrix(
        (np.ones(src.size), (src, dst)), shape=(n_nodes, n_nodes)
    ).tocsr()
    adj.sum_duplicates()
    adj.sort_indices()
    return SparseGraph(
        n_nodes=n_nodes,
        row_offsets=adj.indptr.astype(np.int64),
        col_indices=adj.indices.astype(np.int64),
    )


def build_graph(n_nodes: int, src, dst) -> SparseGraph:
    """Canonical CSR from arc endpoint arrays: deduplicates and drops
    self-loops. The caller lists both arcs of every edge."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ShapeMismatch("src and dst endpoint arrays differ in length")
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise ParseError("negative node id in edge list")
    if src.size and max(src.max(), dst.max()) >= n_nodes:
        raise ShapeMismatch(
            f"edge endpoint exceeds n_nodes={n_nodes}"
        )
    loops = src == dst
    n_loops = int(loops.sum())
    if n_loops:
        log.warning("dropping %d self-loop arc(s)", n_loops)
        src, dst = src[~loops], dst[~loops]
    return _csr_graph(n_nodes, src, dst)


def graph_from_edges(n_nodes: int, edges) -> SparseGraph:
    """Build from undirected (i, j) pairs; both arcs get stored."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    return build_graph(n_nodes, src, dst)


_HEADER_RE = re.compile(r"n_nodes\s*=\s*(\d+)")


def load_edge_list(path, n_nodes: int | None = None, id_map: dict | None = None) -> SparseGraph:
    """Parse a whitespace-separated edge list into a symmetrized graph.

    ``# n_nodes=K`` comment headers override the max-id+1 node count, and an
    explicit ``n_nodes`` argument overrides both. ``id_map`` remaps raw ids
    to dense ones before bounds are applied.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"edge list not found: {path}")
    srcs, dsts = [], []
    header_nodes = None
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.strip()
        if line.startswith("#"):
            m = _HEADER_RE.search(line)
            if m:
                header_nodes = int(m.group(1))
            continue
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(
                f"{path}:{lineno}: expected two node ids, got {len(parts)} fields"
            )
        try:
            if id_map is not None:
                u, v = id_map[parts[0]], id_map[parts[1]]
            else:
                u, v = int(parts[0]), int(parts[1])
        except KeyError as exc:
            raise ParseError(f"{path}:{lineno}: unknown node id {exc}") from None
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: node ids must be integers: {line!r}"
            ) from None
        srcs.append(u)
        dsts.append(v)
    if not srcs:
        raise EmptyGraph(f"no edges in {path}")
    src = np.array(srcs + dsts, dtype=np.int64)
    dst = np.array(dsts + srcs, dtype=np.int64)
    if n_nodes is None:
        n_nodes = header_nodes if header_nodes is not None else int(max(src.max(), dst.max())) + 1
    return build_graph(n_nodes, src, dst)


@dataclass(frozen=True)
class Dataset:
    """Node features, integer labels, and the train/val/test index sets."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @cached_property
    def training_input(self):
        """The features as training feeds them to layer 0 (see
        _training_input), worked out on the first read and kept, so every
        trial and tuning run on this dataset shares one conversion."""
        return _training_input(self.features)

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape[0] != n:
            raise ShapeMismatch(
                f"features have {n} rows but labels have {self.labels.shape[0]}"
            )
        sets = {
            "train": np.asarray(self.train_idx),
            "val": np.asarray(self.val_idx),
            "test": np.asarray(self.test_idx),
        }
        seen = {}
        for name, idx in sets.items():
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ShapeMismatch(f"{name} split index out of range [0, {n})")
            if idx.size != np.unique(idx).size:
                raise ShapeMismatch(f"{name} split contains duplicate indices")
            for other, oidx in seen.items():
                if np.intersect1d(idx, oidx).size:
                    raise ShapeMismatch(f"{name} and {other} splits overlap")
            seen[name] = idx
            labels = self.labels[idx]
            if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
                raise ShapeMismatch(
                    f"{name} split contains an unlabeled node or a label outside "
                    f"[0, {self.n_classes})"
                )


def sample_splits(labels, n_classes: int, labels_per_class: int, n_val: int, n_test: int,
                  rng: np.random.Generator):
    """Sorted (train, val, test) index sets drawn from ``rng``:
    ``labels_per_class`` nodes of each class without replacement, then val
    and test as the first ``n_val`` and the next ``n_test`` nodes of a
    permutation of the rest. A class with too few nodes, or too few nodes
    left for val and test, raises ShapeMismatch."""
    labels = np.asarray(labels)
    train_parts = []
    for c in range(n_classes):
        members = np.flatnonzero(labels == c)
        if members.size < labels_per_class:
            raise ShapeMismatch(
                f"class {c} has only {members.size} nodes; cannot sample {labels_per_class}"
            )
        train_parts.append(rng.choice(members, labels_per_class, replace=False))
    train_idx = np.sort(np.concatenate(train_parts))
    rest = rng.permutation(np.setdiff1d(np.arange(labels.size), train_idx))
    if rest.size < n_val + n_test:
        raise ShapeMismatch(f"{rest.size} nodes left after the train sample; "
                            f"cannot take {n_val} val and {n_test} test nodes")
    return train_idx, np.sort(rest[:n_val]), np.sort(rest[n_val:n_val + n_test])


def _training_input(features: np.ndarray):
    """The feature matrix the training loop feeds to layer 0: a CSR copy
    when at most SPARSE_INPUT_MAX_DENSITY of its entries are non-zero,
    otherwise the dense array itself. The count comes first because it
    allocates nothing: converting a fully dense 19717x500 matrix to find
    its count took 0.34 s and a transient four times the matrix's size."""
    if np.count_nonzero(features) <= SPARSE_INPUT_MAX_DENSITY * features.size:
        return sp.csr_matrix(features)
    return features


def _parsed(path, parse, *args, **kwargs):
    """``parse(*args, **kwargs)``, with a ValueError (a malformed value in
    ``path``) reported as a ParseError naming the file."""
    try:
        return parse(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_index_file(path) -> np.ndarray:
    if not os.path.isfile(path):
        raise MissingFile(f"split file not found: {path}")
    lines = [line.strip() for line in text_lines(path) if line.strip()]
    return np.array(_parsed(path, lambda: [int(v) for v in lines]), dtype=np.int64)


def _read_meta(path) -> dict:
    meta = {}
    if os.path.isfile(path):
        for lineno, line in enumerate(text_lines(path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError(f"{path}:{lineno}: expected 'key=value', got {line!r}")
            meta[key.strip()] = value.strip()
    return meta


def load_dataset(directory) -> tuple[SparseGraph, Dataset]:
    """Load a canonical dataset directory; see the module docstring for the
    layout. Returns the graph together with features/labels/splits."""
    def p(*names):
        return os.path.join(directory, *names)

    if not os.path.isdir(directory):
        raise MissingFile(f"dataset directory not found: {directory}")
    for required in ["edges.txt", "features.csv", "labels.csv"]:
        if not os.path.isfile(p(required)):
            raise MissingFile(f"missing dataset file: {p(required)}")

    meta = _read_meta(p("meta.txt"))
    features = _parsed(p("features.csv"), np.loadtxt, p("features.csv"), delimiter=",",
                       dtype=np.float64, ndmin=2)
    labels = _parsed(p("labels.csv"), np.loadtxt, p("labels.csv"), dtype=np.int64, ndmin=1)
    if not np.all(np.isfinite(features)):
        raise ShapeMismatch("features.csv contains non-finite values")

    id_map = None
    if os.path.isfile(p("node_ids.txt")):
        id_map = {line.strip(): i
                  for i, line in enumerate(text_lines(p("node_ids.txt"))) if line.strip()}

    n_nodes = _parsed(p("meta.txt"), int, meta.get("n_nodes", features.shape[0]))
    graph = load_edge_list(p("edges.txt"), n_nodes=n_nodes, id_map=id_map)
    if features.shape[0] != graph.n_nodes or labels.shape[0] != graph.n_nodes:
        raise ShapeMismatch(
            f"inconsistent node counts: graph={graph.n_nodes} "
            f"features={features.shape[0]} labels={labels.shape[0]}"
        )
    n_classes = _parsed(p("meta.txt"), int, meta.get("n_classes", labels.max() + 1))
    data = Dataset(
        features=features,
        labels=labels,
        n_classes=n_classes,
        train_idx=_read_index_file(p("splits", "train.txt")),
        val_idx=_read_index_file(p("splits", "val.txt")),
        test_idx=_read_index_file(p("splits", "test.txt")),
    )
    return graph, data


def save_dataset(directory, graph: SparseGraph, data: Dataset) -> None:
    """Write the canonical dataset directory layout."""
    os.makedirs(os.path.join(directory, "splits"), exist_ok=True)

    def p(*names):
        return os.path.join(directory, *names)

    with open(p("edges.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n_nodes={graph.n_nodes}\n")
        for i, j in graph.undirected_edges():
            fh.write(f"{i} {j}\n")
    np.savetxt(p("features.csv"), data.features, delimiter=",", fmt="%.10g")
    np.savetxt(p("labels.csv"), data.labels, fmt="%d")
    with open(p("meta.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"n_nodes={graph.n_nodes}\nn_classes={data.n_classes}\n")
    for name, idx in [
        ("train", data.train_idx),
        ("val", data.val_idx),
        ("test", data.test_idx),
    ]:
        np.savetxt(p("splits", f"{name}.txt"), np.asarray(idx, dtype=np.int64), fmt="%d")


@dataclass(frozen=True)
class NormalizedOperator:
    """A normalized graph operator: ``sym`` D^-1/2 A D^-1/2, ``rw`` A D^-1
    (column-stochastic on positive-degree nodes), or ``laplacian`` I - sym.
    Zero-degree nodes get all-zero rows/columns in sym and rw, and an
    identity row in the laplacian."""

    kind: str
    n_nodes: int
    matrix: sp.csr_matrix = field(repr=False)


def normalize(g: SparseGraph, kind: str) -> NormalizedOperator:
    """Build a normalized operator from the structural adjacency."""
    if kind not in (SYM_KIND, RW_KIND, LAPLACIAN_KIND):
        raise ConfigError(f"unknown normalization kind: {kind!r}")
    adj = g.to_scipy()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(g.degrees)
        inv = 1.0 / g.degrees
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    inv[~np.isfinite(inv)] = 0.0
    if kind == RW_KIND:
        mat = (adj @ sp.diags(inv)).tocsr()
    else:
        mat = (sp.diags(inv_sqrt) @ adj @ sp.diags(inv_sqrt)).tocsr()
        if kind == LAPLACIAN_KIND:
            mat = (sp.eye(g.n_nodes, format="csr") - mat).tocsr()
    mat.sort_indices()
    return NormalizedOperator(kind=kind, n_nodes=g.n_nodes, matrix=mat)


def homophily_ratio(g: SparseGraph, labels) -> float:
    """Fraction of arcs whose endpoints share a label (each undirected edge
    counted consistently in numerator and denominator)."""
    if g.n_arcs == 0:
        raise EmptyGraph("homophily ratio undefined on an edgeless graph")
    labels = np.asarray(labels)
    src, dst = g.arc_endpoints()
    return float(np.mean(labels[src] == labels[dst]))


def select_isolated(g: SparseGraph, percentile: float = 3.0):
    """Mark the low-degree tail as isolated and strip its incident arcs.

    The threshold degree is the nearest-rank percentile of the sorted degree
    list; every node whose degree is <= that threshold is isolated (ties
    included), so a regular graph isolates every node. Node ids are
    preserved in the reduced graph.
    """
    if not 0.0 < percentile < 100.0:
        raise ConfigError(f"percentile must lie in (0, 100), got {percentile}")
    order = np.sort(g.degrees)
    rank = max(1, int(np.ceil(percentile / 100.0 * g.n_nodes)))
    threshold = order[rank - 1]
    isolated = np.flatnonzero(g.degrees <= threshold)
    iso_mask = np.zeros(g.n_nodes, dtype=bool)
    iso_mask[isolated] = True
    src, dst = g.arc_endpoints()
    keep = ~(iso_mask[src] | iso_mask[dst])
    reduced = build_graph(g.n_nodes, src[keep], dst[keep])
    return isolated, reduced


def mask_edges(g: SparseGraph, ratio: float, seed: int) -> SparseGraph:
    """Remove floor(ratio * m) undirected edges uniformly without
    replacement (both arcs of each); deterministic for a fixed seed."""
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"mask ratio must lie in [0, 1], got {ratio}")
    edges = g.undirected_edges()
    m = edges.shape[0]
    n_drop = int(np.floor(ratio * m))
    if n_drop == 0:
        return g
    rng = np.random.default_rng(seed)
    drop = rng.choice(m, size=n_drop, replace=False)
    keep = np.ones(m, dtype=bool)
    keep[drop] = False
    return graph_from_edges(g.n_nodes, edges[keep])


def add_self_loops(g: SparseGraph) -> SparseGraph:
    """Adjacency plus the identity, as used by the graph-convolution
    comparators' renormalization."""
    src, dst = g.arc_endpoints()
    eye = np.arange(g.n_nodes)
    return _csr_graph(g.n_nodes, np.concatenate([src, eye]), np.concatenate([dst, eye]))
