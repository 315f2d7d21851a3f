"""Graph and node-data loading, normalized operators, and the graph
transformations the experiments need (edge masking, low-degree isolation).

Graphs are undirected and stored in canonical CSR form: both arcs of every
edge are present, column indices are strictly increasing within a row, and
self-loops are dropped at load time. The dataset directory layout is plain
text: ``edges.txt`` (two node ids per line), ``features.csv`` (N x F
comma-separated reals or integers, no header; see ``_read_features``),
``labels.csv`` (one integer per row, -1 = unlabeled; a real-valued cell
is a ParseError, see ``_integer_table``),
``splits/{train,val,test}.txt`` (one node index in [0, N) per line), and
an optional ``meta.txt`` of ``key = value`` lines
(``#`` starts a comment) with ``n_nodes`` / ``n_classes`` overrides and no
other key. The node ids in ``edges.txt`` are indices in [0, N), or raw ids
when the optional ``node_ids.txt`` (one raw id per line) lists them: a raw
id's index is its order among that file's id lines. These three id files
skip blank lines and lines starting with ``#`` (see ``field_lines``).

The hot files have a fast reader, kept only where it reads a file exactly
as the general reader does, so values and errors do not depend on which
reader ran. ``features.csv`` goes to the first of three tiers that takes it
(``_read_features``): a table of one-digit cells is read from its bytes,
an integer table by numpy's int16 parser, and any other table by its
float64 parser. ``edges.txt`` and the splits, when they hold dense ids,
go to numpy's integer parser (``_integer_ids``), and the line reader
(``id_lines``) reads whatever that parse does not keep. ``node_ids.txt``
and a raw-id ``edges.txt`` always take the line reader.

Every text file the package writes goes through ``write_lines``,
``write_csv`` or ``write_json``: UTF-8, LF line ends, a final LF.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, EmptyGraph, MissingFile, ParseError, ShapeMismatch, check_range

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


def write_lines(path, lines) -> None:
    """Write ``lines`` to ``path`` as UTF-8 text, each ending in LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(f"{line}\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as UTF-8 CSV with LF
    row ends. Float cells are written as ``str(float)``, the shortest text
    that reads back to the same float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON indented by 2 with a final LF;
    numpy scalars that are not Python numbers are written as floats."""
    write_lines(path, [json.dumps(payload, indent=2, default=float)])


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


def field_lines(path):
    """(lineno, fields) for each line of the text file ``path`` that is
    neither blank nor a ``#`` comment, split on whitespace."""
    for lineno, raw in enumerate(text_lines(path), start=1):
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def id_lines(path, n_fields: int):
    """The field_lines of ``path``; one with other than ``n_fields``
    fields raises ParseError naming ``path:lineno``."""
    for lineno, fields in field_lines(path):
        if len(fields) != n_fields:
            raise ParseError(
                f"{path}:{lineno}: expected {n_fields} node id(s), got {len(fields)} fields"
            )
        yield lineno, fields


def _integer_ids(path, n_fields: int, n_nodes: int) -> np.ndarray | None:
    """The (lines, n_fields) int64 ids of the id file ``path`` read by
    numpy's integer parser, or None when the line reader must read them.
    The parse is kept only where it reads the file exactly as the line
    reader does: no ``#`` follows a line's first field, numpy warns of
    nothing, and every line holds ``n_fields`` integers in [0, n_nodes).
    A file that is not UTF-8 raises the line reader's ParseError. On the
    5278 edge lines of a Cora-shaped file this takes about 1 ms, where the
    line reader takes 4-6 ms."""
    lines = text_lines(path)
    text = "".join(lines)
    end = 0
    while (pos := text.find("#", end)) >= 0:
        # a "#" after its line's first field: the line reader keeps the
        # line's fields, where loadtxt would drop them as a comment
        if text[text.rfind("\n", 0, pos) + 1:pos].strip():
            return None
        # the rest of a comment line is the comment
        end = text.find("\n", pos) + 1 or len(text)
    try:
        with warnings.catch_warnings():
            # any warning rejects the parse, numpy's "input contained no
            # data" on a file without id lines among them
            warnings.simplefilter("error")
            ids = _integer_table(lines, np.int64, ndmin=2, comments="#")
    except (ValueError, Warning):
        return None
    if ids.shape[1] != n_fields or ids.min() < 0 or ids.max() >= n_nodes:
        return None
    return ids


def _node_ids(path, n_fields: int, n_nodes: int, id_map: dict | None) -> np.ndarray:
    """The ids on the id lines of ``path`` as an (lines, n_fields) int64
    array: integers, or raw ids translated through ``id_map`` when it is
    given, each in [0, n_nodes). Without ``id_map`` numpy's integer parser
    reads the file first (see _integer_ids); the line reader reads what it
    does not keep and every raw-id file. The line reader translates and
    checks all ids at once; only when that fails are the lines read again,
    to raise ParseError naming the first bad one."""
    if id_map is None:
        ids = _integer_ids(path, n_fields, n_nodes)
        if ids is not None:
            return ids
    lookup = int if id_map is None else id_map.__getitem__

    def dense(tokens):
        # OverflowError stands for an id outside [0, n_nodes); fromiter
        # raises it itself for an int beyond int64
        ids = np.fromiter(map(lookup, tokens), dtype=np.int64, count=len(tokens))
        if ids.size and (ids.min() < 0 or ids.max() >= n_nodes):
            raise OverflowError
        return ids

    try:
        return dense([t for _, fields in id_lines(path, n_fields) for t in fields]
                     ).reshape(-1, n_fields)
    except (KeyError, ValueError, OverflowError):
        pass
    for lineno, fields in id_lines(path, n_fields):
        try:
            dense(fields)
            continue
        except KeyError:
            reason = "unknown node id"
        except ValueError:
            reason = "node ids must be integers"
        except OverflowError:
            reason = f"node id outside [0, {n_nodes})"
        raise ParseError(f"{path}:{lineno}: {reason}: {' '.join(fields)!r}")


def load_edge_list(path, n_nodes: int, id_map: dict | None = None) -> SparseGraph:
    """The symmetrized graph on ``n_nodes`` nodes whose edges are the id
    lines of ``path``: two node ids each, integers in [0, n_nodes) or raw
    ids translated through ``id_map``. A bad line raises ParseError naming
    ``path:lineno``."""
    if not os.path.isfile(path):
        raise MissingFile(f"edge list not found: {path}")
    edges = _node_ids(path, 2, n_nodes, id_map)
    if not np.any(edges[:, 0] != edges[:, 1]):
        raise EmptyGraph(f"no edges in {path} (self-loops are dropped)")
    return graph_from_edges(n_nodes, edges)


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


def _integer_table(source, dtype, **kwargs) -> np.ndarray:
    """``np.loadtxt(source, dtype=dtype, **kwargs)`` for an integer
    ``dtype``, where a real-valued cell raises ValueError on every numpy:
    numpy 1.23 to 2.x parses it through a float, truncating it, and says
    so only in a DeprecationWarning ("loadtxt(): Parsing an integer via a
    float")."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt", DeprecationWarning)
        try:
            return np.loadtxt(source, dtype=dtype, **kwargs)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None


def _one_digit_table(path) -> np.ndarray | None:
    """The float64 table of the features file ``path`` when every row is
    ``d,d,...,d`` and a LF, each ``d`` one ASCII digit, with all rows of one
    width; otherwise None. Such a file is a grid of (digit, separator)
    byte pairs, so its bytes fix the values and no tokenizer runs: read as
    little-endian uint16, a pair is 0x2C30-0x2C39 inside a row and
    0x0A30-0x0A39 at its end. On a 2-vCPU VM a 0/1 table of Cora's
    2708x1433 reads in about 10 ms, where the int16 parse takes 64-71 ms,
    with a peak of 1.25 float64 tables (the bytes and the result)."""
    data = np.fromfile(path, dtype=np.uint8)
    # bytes per row: the first LF's offset + 1, or 1 when there is no LF
    width = 1 + int(np.argmax(data == ord("\n"))) if data.size else 1
    if width % 2 or data.size % width:
        return None
    pairs = data.view("<u2").reshape(-1, width // 2)
    inner, last = pairs[:, :-1], pairs[:, -1]
    if inner.size and (inner.min() < 0x2C30 or inner.max() > 0x2C39):
        return None
    if last.min() < 0x0A30 or last.max() > 0x0A39:
        return None
    return np.subtract(data[0::2].reshape(pairs.shape), 48, dtype=np.float64)


def _read_features(path) -> np.ndarray:
    """The float64 table of the features file ``path``, read by the first
    of three tiers that takes it. A table of one-digit cells is read from
    its bytes (_one_digit_table). Else numpy's int16 parser runs, and its
    result converts to float64 exactly (a ``-0`` cell becomes 0.0): on a
    2-vCPU VM it reads an integer table of Cora's 2708x1433 in 64 ms, where
    the float64 parser takes 110 ms. int16, the narrowest type that holds
    bag-of-words counts, keeps the load's peak at 1.25 float64 tables. A
    real-valued, out-of-range or malformed cell makes that parse raise
    ValueError and the table is parsed as float64: a malformed cell then
    raises ParseError naming the file, and only this parse can hold a NaN
    or infinity. Each tier returns what the float64 parse returns, a
    ``-0`` cell aside."""
    features = _one_digit_table(path)
    if features is not None:
        return features
    try:
        return _integer_table(path, np.int16, delimiter=",", ndmin=2).astype(np.float64)
    except ValueError:
        pass
    features = _parsed(path, np.loadtxt, path, delimiter=",", dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(features)):
        raise ShapeMismatch(f"{path}: contains non-finite values")
    return features


def key_value_lines(path, error=ParseError):
    """The ``key = value`` lines of the text file ``path``, as (lineno, key,
    value) with both sides stripped. ``#`` starts a comment and blank lines
    are skipped; a line without ``=`` or with an empty key raises ``error``
    naming ``path:lineno``."""
    for lineno, raw in enumerate(text_lines(path, error), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise error(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        yield lineno, key, value.strip()


def read_index_file(path, n_nodes: int, id_map: dict | None = None) -> np.ndarray:
    """The node indices listed one per id line of ``path``, read like
    load_edge_list's ids."""
    if not os.path.isfile(path):
        raise MissingFile(f"split file not found: {path}")
    return _node_ids(path, 1, n_nodes, id_map).ravel()


# the keys a meta.txt may set; any other key is a typo, not a comment
META_KEYS = ("n_nodes", "n_classes")


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

    meta = {}
    if os.path.isfile(p("meta.txt")):
        for lineno, key, value in key_value_lines(p("meta.txt")):
            if key not in META_KEYS:
                raise ParseError(f"{p('meta.txt')}:{lineno}: unknown key '{key}'")
            meta[key] = value
    features = _read_features(p("features.csv"))
    labels = _parsed(p("labels.csv"), _integer_table, p("labels.csv"), np.int64, ndmin=1)

    id_map = None
    if os.path.isfile(p("node_ids.txt")):
        id_map = {}
        for lineno, (raw_id,) in id_lines(p("node_ids.txt"), 1):
            if raw_id in id_map:
                raise ParseError(f"{p('node_ids.txt')}:{lineno}: duplicate node id {raw_id!r}")
            id_map[raw_id] = len(id_map)

    n_nodes = _parsed(p("meta.txt"), int, meta.get("n_nodes", features.shape[0]))
    graph = load_edge_list(p("edges.txt"), n_nodes, id_map)
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
        train_idx=read_index_file(p("splits", "train.txt"), n_nodes),
        val_idx=read_index_file(p("splits", "val.txt"), n_nodes),
        test_idx=read_index_file(p("splits", "test.txt"), n_nodes),
    )
    return graph, data


def save_dataset(directory, graph: SparseGraph, data: Dataset) -> None:
    """Write the canonical dataset directory layout."""
    os.makedirs(os.path.join(directory, "splits"), exist_ok=True)

    def p(*names):
        return os.path.join(directory, *names)

    write_lines(p("edges.txt"), (f"{i} {j}" for i, j in graph.undirected_edges()))
    np.savetxt(p("features.csv"), data.features, delimiter=",", fmt="%.10g")
    np.savetxt(p("labels.csv"), data.labels, fmt="%d")
    write_lines(p("meta.txt"), [f"n_nodes={graph.n_nodes}", f"n_classes={data.n_classes}"])
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

    @cached_property
    def transposed(self) -> sp.csr_matrix:
        """The CSR of ``matrix.T``, built on first use (by spmm_t) and kept.
        Its rows list their columns in ascending order, the order in which
        a product with ``matrix.T`` sums them, so products agree bit for
        bit."""
        return self.matrix.T.tocsr()


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
    check_range("percentile", percentile)
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
    check_range("mask ratio", ratio)
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
