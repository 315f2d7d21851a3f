import os
import shutil
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orthoreg import graphio
from orthoreg.errors import EmptyGraph, MissingFile, ParseError, ShapeMismatch
from orthoreg.graphio import (
    Dataset,
    add_self_loops,
    graph_from_edges,
    homophily_ratio,
    load_dataset,
    load_edge_list,
    mask_edges,
    normalize,
    sample_splits,
    save_dataset,
    select_isolated,
)
from orthoreg.synth import star_graph, synthetic_dataset
from orthoreg.tensor import spmm_t, sym_eigvals


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class TestLoadEdgeList:
    def test_two_edge_path(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "0 1\n1 2\n"), 3)
        assert g.n_nodes == 3
        assert g.n_arcs == 4
        src, dst = g.arc_endpoints()
        assert set(zip(src.tolist(), dst.tolist())) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_empty_file_raises(self, tmp_path):
        with pytest.raises(EmptyGraph):
            load_edge_list(write(tmp_path / "e.txt", "# only comments\n"), 3)

    def test_malformed_line_names_line_number(self, tmp_path):
        with pytest.raises(ParseError, match=":2:"):
            load_edge_list(write(tmp_path / "e.txt", "0 1\n0 1 2\n"), 3)

    def test_non_integer_ids_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="integers"):
            load_edge_list(write(tmp_path / "e.txt", "a b\n"), 3)

    def test_id_too_large_for_int64_names_line(self, tmp_path):
        with pytest.raises(ParseError, match=r"e\.txt:2: node id outside \[0, 3\)"):
            load_edge_list(write(tmp_path / "e.txt", "0 1\n0 99999999999999999999\n"), 3)

    def test_duplicates_and_reverse_arcs_deduplicated(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "0 1\n1 0\n0 1\n"), 2)
        assert g.n_arcs == 2
        assert g.n_edges == 1

    def test_self_loops_only_raises_naming_file(self, tmp_path):
        with pytest.raises(EmptyGraph, match="e.txt"):
            load_edge_list(write(tmp_path / "e.txt", "0 0\n1 1\n"), 2)

    def test_self_loops_dropped(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "0 0\n0 1\n"), 2)
        assert g.n_arcs == 2
        assert g.degrees.tolist() == [1.0, 1.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_edge_list(tmp_path / "absent.txt", 3)

    def test_symmetry_invariant(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "0 3\n1 2\n2 3\n"), 4)
        a = g.to_scipy()
        assert (a != a.T).nnz == 0

    def test_canonical_csr_layout(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "3 0\n2 0\n1 0\n3 1\n"), 4)
        assert g.row_offsets[0] == 0
        assert g.row_offsets[-1] == g.col_indices.size
        assert np.all(np.diff(g.row_offsets) >= 0)
        for i in range(g.n_nodes):
            row = g.col_indices[g.row_offsets[i]:g.row_offsets[i + 1]]
            assert np.all(np.diff(row) > 0)  # strictly increasing in-row
            assert np.all(row < g.n_nodes)


class TestDatasetRoundTrip:
    def test_save_then_load(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        g2, d2 = load_dataset(tmp_path / "ds")
        assert g2.n_nodes == graph.n_nodes
        assert g2.n_arcs == graph.n_arcs
        np.testing.assert_allclose(d2.features, data.features, rtol=1e-9)
        np.testing.assert_array_equal(d2.labels, data.labels)
        np.testing.assert_array_equal(d2.train_idx, data.train_idx)
        assert d2.n_classes == data.n_classes

    def test_missing_features_file(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        os.remove(tmp_path / "ds" / "features.csv")
        with pytest.raises(MissingFile, match="features.csv"):
            load_dataset(tmp_path / "ds")

    def test_overlapping_splits_rejected(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        overlap = np.concatenate([data.train_idx[:3], data.test_idx])
        np.savetxt(tmp_path / "ds" / "splits" / "test.txt", overlap, fmt="%d")
        with pytest.raises(ShapeMismatch, match="overlap"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_unlabeled_val_or_test_node_rejected_naming_split(self, split):
        idx = {"train_idx": np.array([0]), "val_idx": np.array([2]),
               "test_idx": np.array([3])}
        idx[f"{split}_idx"] = np.array([1])
        with pytest.raises(ShapeMismatch, match=f"{split} split"):
            Dataset(features=np.zeros((4, 2)), labels=np.array([0, -1, 1, 1]),
                    n_classes=2, **idx)

    def test_meta_line_without_equals_rejected_naming_file_and_line(
            self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        write(tmp_path / "ds" / "meta.txt", f"n_nodes={graph.n_nodes}\nn_classes: 6\n")
        with pytest.raises(ParseError, match=r"meta\.txt:2:"):
            load_dataset(tmp_path / "ds")

    def test_meta_inline_comment_ignored(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        write(tmp_path / "ds" / "meta.txt",
              f"# counts\nn_nodes = {graph.n_nodes}  # all of them\n"
              f"n_classes={data.n_classes + 2}# two unused\n")
        _, loaded = load_dataset(tmp_path / "ds")
        assert loaded.n_classes == data.n_classes + 2

    def test_meta_empty_key_rejected_naming_file_and_line(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        write(tmp_path / "ds" / "meta.txt", f"n_nodes={graph.n_nodes}\n\n= 5\n")
        with pytest.raises(ParseError, match=r"meta\.txt:3: expected 'key = value'"):
            load_dataset(tmp_path / "ds")

    def test_meta_unknown_key_rejected_naming_file_line_and_key(self, tmp_path,
                                                                synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        write(tmp_path / "ds" / "meta.txt", f"n_nodes={graph.n_nodes}\nn_clases = 5\n")
        with pytest.raises(ParseError, match=r"meta\.txt:2: unknown key 'n_clases'"):
            load_dataset(tmp_path / "ds")

    def test_split_index_too_large_for_int64_names_file(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        with open(tmp_path / "ds" / "splits" / "val.txt", "a", encoding="utf-8") as fh:
            fh.write("99999999999999999999\n")
        with pytest.raises(ParseError, match=r"val\.txt:\d+: node id outside \[0, \d+\)"):
            load_dataset(tmp_path / "ds")

    def test_comment_and_blank_lines_in_split_file_skipped(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        val = tmp_path / "ds" / "splits" / "val.txt"
        val.write_text("# validation nodes\n\n" + val.read_text())
        _, loaded = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(loaded.val_idx, data.val_idx)

    def test_non_finite_feature_rejected_naming_full_path(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        features = data.features.copy()
        features[3, 1] = np.nan
        np.savetxt(tmp_path / "ds" / "features.csv", features, delimiter=",")
        with pytest.raises(ShapeMismatch) as exc:
            load_dataset(tmp_path / "ds")
        assert str(tmp_path / "ds" / "features.csv") in str(exc.value)

    def test_unlabeled_train_node_rejected(self):
        with pytest.raises(ShapeMismatch):
            Dataset(
                features=np.zeros((4, 2)),
                labels=np.array([0, -1, 1, 1]),
                n_classes=2,
                train_idx=np.array([0, 1]),
                val_idx=np.array([2]),
                test_idx=np.array([3]),
            )

    def test_shape_mismatch_between_graph_and_features(self, tmp_path, synthetic_problem):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        np.savetxt(tmp_path / "ds" / "features.csv",
                   data.features[:-1], delimiter=",", fmt="%.6g")
        with pytest.raises(ShapeMismatch):
            load_dataset(tmp_path / "ds")

    def test_real_valued_label_rejected_where_numpy_truncates_it(self, tmp_path,
                                                                 synthetic_problem,
                                                                 truncating_loadtxt):
        graph, data = synthetic_problem
        save_dataset(tmp_path / "ds", graph, data)
        labels = tmp_path / "ds" / "labels.csv"
        labels.write_text("1.7\n" + labels.read_text().split("\n", 1)[1])
        with pytest.raises(ParseError) as exc:
            load_dataset(tmp_path / "ds")
        assert str(labels) in str(exc.value)


def raw_id_dataset(path, node_ids: str):
    """A 4-node dataset directory whose edges.txt holds the raw-id path
    a-b-c and whose node_ids.txt is ``node_ids``."""
    save_dataset(path, graph_from_edges(4, [(0, 1)]),
                 Dataset(features=np.zeros((4, 2)), labels=np.array([0, 1, 0, 1]), n_classes=2,
                         train_idx=np.array([0, 1]), val_idx=np.array([2]),
                         test_idx=np.array([3])))
    write(path / "edges.txt", "a b\nb c\n")
    write(path / "node_ids.txt", node_ids)
    return path


@st.composite
def id_files(draw):
    """(text, n_fields): an id file of mostly well-formed lines, with noise
    in its tokens, separators and line ends."""
    n_fields = draw(st.sampled_from([1, 2]))
    token = st.sampled_from(["0", "3", "7", "+2", "007"] * 8 + [
        "8", "-1", "3.0", "1_0", "x", "#", "#c", "99999999999999999999"])
    fields = st.lists(token, min_size=n_fields, max_size=n_fields) | st.lists(token, max_size=3)
    lines = draw(st.lists(st.tuples(
        st.sampled_from(["", " ", "\t"]), fields,
        st.sampled_from([" ", "\t", "  ", "\x0c", "\u2028"]),
        st.sampled_from(["\n"] * 4 + ["\r\n", "\r", ""])), max_size=6))
    return "".join(lead + sep.join(t) + end for lead, t, sep, end in lines), n_fields


class TestNodeIds:
    def test_raw_id_takes_its_order_among_id_lines(self, tmp_path):
        graph, _ = load_dataset(raw_id_dataset(tmp_path / "ds", "# raw ids\nd\nc\n\nb\na\n"))
        assert graph.undirected_edges().tolist() == [[1, 2], [2, 3]]

    def test_duplicate_id_rejected_naming_file_line_and_id(self, tmp_path):
        with pytest.raises(ParseError, match=r"node_ids\.txt:4: duplicate node id 'b'"):
            load_dataset(raw_id_dataset(tmp_path / "ds", "a\nb\nc\nb\n"))

    @pytest.mark.parametrize("data, n_fields", [
        (b"# n_nodes=8\n0 1\n# between\n2 3\n", 2),
        (b"\n0 1\n\n  \n2 3\n\n", 2),
        (b"0\t1\n\t2 \t3\t\n", 2),
        (b"0 1\r\n2 3\r\n", 2),
        (b"  # a # b\n0 1\n", 2),
        (b"# val\n4\n\n0\r\n 3\t\n", 1),
    ], ids=["comments", "blank-lines", "tabs", "crlf", "comment-hashes", "split"])
    def test_numpy_parse_reads_what_the_line_reader_reads(self, tmp_path, data, n_fields):
        path = tmp_path / "ids.txt"
        path.write_bytes(data)
        ids = graphio._integer_ids(path, n_fields, 8)
        assert ids is not None
        expected = line_reader_ids(path, n_fields, 8)
        assert ids.dtype == expected.dtype and ids.shape == expected.shape
        assert np.array_equal(ids, expected)
        assert np.array_equal(graphio._node_ids(path, n_fields, 8, None), expected)

    @pytest.mark.parametrize("data, n_fields, message", [
        (b"0 1\n3 4 # x\n", 2, ":2: expected 2 node id(s), got 4 fields"),
        (b"0 1\n3.0 4\n", 2, ":2: node ids must be integers: '3.0 4'"),
        (b"0 1\n3 8\n", 2, ":2: node id outside [0, 8): '3 8'"),
        (b"0 1\n-1 4\n", 2, ":2: node id outside [0, 8): '-1 4'"),
        (b"0 1\n2\n", 2, ":2: expected 2 node id(s), got 1 fields"),
        (b"0\n1 2\n", 1, ":2: expected 1 node id(s), got 2 fields"),
        (b"# \xff\n0 1\n", 2, ": not UTF-8 text (invalid start byte at byte 2)"),
    ], ids=["inline-comment", "real-id", "out-of-range", "negative", "one-field", "two-fields",
            "not-utf8-comment"])
    def test_line_reader_message_kept(self, tmp_path, data, n_fields, message):
        path = tmp_path / "ids.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            graphio._node_ids(path, n_fields, 8, None)
        assert str(exc.value) == f"{path}{message}"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=id_files())
    def test_any_id_file_reads_as_the_line_reader_reads_it(self, case):
        text, n_fields = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ids.txt")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            assert ids_or_message(graphio._node_ids, path, n_fields) == ids_or_message(
                line_reader_ids, path, n_fields)


def line_reader_ids(path, n_fields, n_nodes, id_map=None):
    """_node_ids as the line reader alone reads an id file."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphio, "_integer_ids", lambda *args: None)
        return graphio._node_ids(path, n_fields, n_nodes, id_map)


def ids_or_message(read, path, n_fields):
    """The (dtype, shape, ids) ``read`` returns for ``path`` on 8 nodes, or
    the message of the package error it raises."""
    try:
        ids = read(path, n_fields, 8, None)
    except ParseError as exc:
        return str(exc)
    return ids.dtype, ids.shape, ids.tolist()


def float_parse(path):
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


@pytest.fixture
def parse_dtypes(monkeypatch):
    """The dtype of every np.loadtxt call, in call order."""
    dtypes, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        dtypes.append(np.dtype(kwargs["dtype"]))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return dtypes


@st.composite
def feature_files(draw):
    """A features file of mostly one-digit cells in rows of one width, with
    noise in its cells, separators and row ends."""
    width = draw(st.integers(1, 4))
    cell = st.sampled_from([str(d) for d in range(10)] * 4 + [
        "12", "-0", "-3", ".5", " 1", "", "#", "x"])
    cells = st.lists(cell, min_size=width, max_size=width) | st.lists(cell, max_size=5)
    rows = draw(st.lists(st.tuples(cells, st.sampled_from([","] * 8 + [";", ", "]),
                                   st.sampled_from(["\n"] * 8 + ["\r\n", ",\n", ""])),
                         max_size=5))
    return "".join(sep.join(row) + end for row, sep, end in rows)


def table_or_message(read, path):
    """The (dtype, shape, bytes) of the table ``read`` returns for ``path``,
    or the type and message of the package error it raises."""
    try:
        table = read(path)
    except (ParseError, ShapeMismatch) as exc:
        return type(exc), str(exc)
    return table.dtype, table.shape, table.tobytes()


@pytest.fixture
def truncating_loadtxt(monkeypatch):
    """np.loadtxt as numpy 1.23 to 2.x runs it: a real-valued cell parsed
    into an integer dtype is truncated, and only a DeprecationWarning says
    so."""
    loadtxt = np.loadtxt

    def truncating(*args, **kwargs):
        if np.dtype(kwargs["dtype"]).kind == "i":
            # attributed here, not to orthoreg, as numpy attributes it to itself
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return loadtxt(*args, **{**kwargs, "dtype": np.float64}).astype(kwargs["dtype"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating)


class TestReadFeatures:
    @pytest.mark.parametrize("text, parses", [
        ("0,1,0,0\n1,0,0,1\n0,0,0,0\n", []),
        ("3,12,0\n250,7,1\n0,32767,-32768\n", [np.int16]),
        ("1,0,0,1,1\n", []),
        ("0\n1\n4\n", []),
        ("0,1,2,3,4\n5,6,7,8,9\n", []),
        ("7\n", []),
    ], ids=["binary", "counts", "single-row", "single-column", "digits", "one-cell"])
    def test_integer_table_is_bit_identical_to_the_float_parse(self, tmp_path, parse_dtypes,
                                                               text, parses):
        # a table of one-digit cells is read from its bytes, with no parse
        path = write(tmp_path / "features.csv", text)
        features = graphio._read_features(path)
        assert parse_dtypes == [np.dtype(t) for t in parses]
        expected = float_parse(path)
        assert features.dtype == expected.dtype and features.shape == expected.shape
        assert features.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", [
        "0.5,1\n0,1\n1,0\n",
        "0,1\n1,0\n1,0.5\n",
        "0,1\n32768,0\n",
    ], ids=["real-first-row", "real-last-row", "beyond-int16"])
    def test_other_tables_take_the_float_parse_and_match_it(self, tmp_path, parse_dtypes, text):
        path = write(tmp_path / "features.csv", text)
        features = graphio._read_features(path)
        assert parse_dtypes == [np.dtype(np.int16), np.dtype(np.float64)]
        expected = float_parse(path)
        assert features.dtype == expected.dtype and features.tobytes() == expected.tobytes()

    def test_a_float_parsed_integer_cell_takes_the_float_parse(self, tmp_path,
                                                               truncating_loadtxt):
        path = write(tmp_path / "features.csv", "0.5,1\n0,1\n")
        assert graphio._read_features(path).tolist() == [[0.5, 1.0], [0.0, 1.0]]

    def test_malformed_cell_raises_the_float_parse_error_naming_the_file(self, tmp_path):
        path = write(tmp_path / "features.csv", "0,1\n1,x\n")
        with pytest.raises(ValueError) as float_error:
            float_parse(path)
        with pytest.raises(ParseError) as exc:
            graphio._read_features(path)
        assert str(exc.value) == f"{path}: {float_error.value}"

    @pytest.mark.parametrize("data", [
        b"0,1\r\n1,0\r\n",
        b"0,1\n1,0",
        b"0,1,\n1,0,\n",
        b"0,1\n\n1,0\n",
        b"# header\n0,1\n1,0\n",
        b" 0,1\n1,0\n",
        b"\xef\xbb\xbf0,1\n1,0\n",
        b"0,1\n1\n0,1\n",
        b"0,1\n1,0\n1\n",
    ], ids=["crlf", "no-final-lf", "trailing-comma", "blank-line", "comment-line",
            "leading-space", "bom", "ragged", "ragged-last"])
    def test_near_one_digit_tables_take_the_parse_and_match_it(self, tmp_path, parse_dtypes,
                                                               data):
        path = tmp_path / "features.csv"
        path.write_bytes(data)
        try:
            features = graphio._read_features(path)
        except ParseError as exc:
            features = exc
        assert parse_dtypes[0] == np.dtype(np.int16)
        try:
            expected = float_parse(path)
        except ValueError as exc:
            assert isinstance(features, ParseError) and str(features) == f"{path}: {exc}"
        else:
            assert features.dtype == expected.dtype and features.shape == expected.shape
            assert features.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=feature_files())
    def test_any_table_reads_as_the_parse_reads_it(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "features.csv")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            with warnings.catch_warnings():
                # numpy's "input contained no data"
                warnings.simplefilter("ignore", UserWarning)
                read = table_or_message(graphio._read_features, path)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(graphio, "_one_digit_table", lambda path: None)
                    assert read == table_or_message(graphio._read_features, path)

    def test_negative_zero_cell_loads_as_positive_zero(self, tmp_path):
        path = write(tmp_path / "features.csv", "-0,1\n")
        assert np.signbit(float_parse(path)[0, 0])
        features = graphio._read_features(path)
        assert features.tolist() == [[0.0, 1.0]] and not np.signbit(features[0, 0])

    def test_cora_shaped_binary_table_peak_memory_budget(self, tmp_path):
        # the parse's traced peak above entry stays within 1.3 float64
        # tables: the int16 parse with its conversion measures 1.25, an
        # int32 parse 1.5 and an int64 parse 2
        cells = np.random.default_rng(0).random((2708, 1433)) < 0.013
        text = np.full((cells.shape[0], 2 * cells.shape[1]), ord(","), dtype=np.uint8)
        text[:, 0::2] = cells + ord("0")
        text[:, -1] = ord("\n")
        path = tmp_path / "features.csv"
        path.write_bytes(text.tobytes())
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            features = graphio._read_features(path)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert np.array_equal(features, cells)
        assert peak <= 1.3 * features.nbytes, peak / features.nbytes


class TestSampleSplits:
    def test_per_class_train_then_disjoint_val_and_test(self):
        labels = np.repeat(np.arange(3), 30)
        train, val, test = sample_splits(labels, 3, 5, 20, 40, np.random.default_rng(0))
        assert np.bincount(labels[train]).tolist() == [5, 5, 5]
        assert (val.size, test.size) == (20, 40)
        assert np.unique(np.concatenate([train, val, test])).size == 75
        for idx in (train, val, test):
            assert np.all(np.diff(idx) > 0)
        again = sample_splits(labels, 3, 5, 20, 40, np.random.default_rng(0))
        assert all(np.array_equal(a, b) for a, b in zip((train, val, test), again))

    def test_short_class_rejected_naming_its_label_index(self):
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(ShapeMismatch, match="class 1 has only 3 nodes"):
            sample_splits(labels, 2, 4, 1, 1, np.random.default_rng(0))

    def test_too_few_nodes_for_val_and_test_rejected(self):
        labels = np.repeat(np.arange(2), 10)
        with pytest.raises(ShapeMismatch, match="cannot take 10 val and 7 test"):
            sample_splits(labels, 2, 2, 10, 7, np.random.default_rng(0))

    def test_synthetic_dataset_rejects_a_short_class(self):
        # 40 nodes in 4 blocks of 10
        with pytest.raises(ShapeMismatch, match="class 0 has only 10 nodes"):
            synthetic_dataset(n_nodes=40, n_classes=4, labels_per_class=11, n_val=5, n_test=5)

    def test_synthetic_dataset_rejects_oversized_val_and_test(self):
        # 100 nodes less 20 train nodes leave 80 for 60 + 30
        with pytest.raises(ShapeMismatch, match="80 nodes left"):
            synthetic_dataset(n_nodes=100, n_classes=4, labels_per_class=5, n_val=60,
                              n_test=30)


class TestNormalize:
    def test_single_edge_sym_values(self, single_edge):
        op = normalize(single_edge, "sym")
        np.testing.assert_allclose(op.matrix.data, [1.0, 1.0])

    def test_triangle_sym_values(self, triangle):
        op = normalize(triangle, "sym")
        assert op.matrix.nnz == 6
        np.testing.assert_allclose(op.matrix.data, 0.5)

    def test_star_sym_value(self):
        op = normalize(star_graph(3), "sym")
        dense = op.matrix.toarray()
        np.testing.assert_allclose(dense[0, 1:], 1.0 / np.sqrt(3.0), atol=1e-12)

    def test_rw_columns_sum_to_one(self, rng):
        g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)])  # node 5 isolated
        op = normalize(g, "rw")
        sums = np.asarray(op.matrix.sum(axis=0)).ravel()
        np.testing.assert_allclose(sums[:5], 1.0, atol=1e-12)
        assert sums[5] == 0.0

    def test_laplacian_row_action_on_ones(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        lap = normalize(g, "laplacian")
        sym = normalize(g, "sym")
        ones = np.ones((4, 1))
        expected = 1.0 - (sym.matrix @ ones)
        np.testing.assert_allclose(lap.matrix @ ones, expected, atol=1e-12)

    def test_degree_zero_rows(self):
        g = graph_from_edges(3, [(0, 1)])  # node 2 isolated
        sym = normalize(g, "sym").matrix.toarray()
        rw = normalize(g, "rw").matrix.toarray()
        lap = normalize(g, "laplacian").matrix.toarray()
        assert not sym[2].any() and not sym[:, 2].any()
        assert not rw[2].any() and not rw[:, 2].any()
        np.testing.assert_allclose(lap[2], [0.0, 0.0, 1.0])

    def test_sym_operator_symmetric_with_bounded_spectrum(self, rng):
        from orthoreg.synth import sbm_graph

        g, _ = sbm_graph(40, seed=5)
        dense = normalize(g, "sym").matrix.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-14)
        vals = sym_eigvals(dense)
        assert vals[0] <= 1.0 + 1e-10
        assert vals[-1] >= -1.0 - 1e-10

    def test_laplacian_positive_semidefinite(self):
        from orthoreg.synth import sbm_graph

        g, _ = sbm_graph(30, seed=2)
        vals = sym_eigvals(normalize(g, "laplacian").matrix.toarray())
        assert vals[-1] >= -1e-10

    def test_unknown_kind(self, triangle):
        with pytest.raises(ValueError):
            normalize(triangle, "bogus")

    def test_transpose_is_built_on_first_spmm_t_and_kept(self, rng):
        op = normalize(star_graph(4), "rw")
        assert "transposed" not in vars(op)
        m = rng.standard_normal((5, 3))
        first = spmm_t(op, m)
        kept = op.transposed
        assert spmm_t(op, m).tobytes() == first.tobytes()
        assert op.transposed is kept


class TestHomophily:
    def test_uniform_labels(self, triangle):
        assert homophily_ratio(triangle, [1, 1, 1]) == 1.0

    def test_distinct_labels_on_path(self, single_edge):
        assert homophily_ratio(single_edge, [0, 1]) == 0.0

    def test_edgeless_graph_raises(self, triangle):
        empty = mask_edges(triangle, 1.0, seed=0)
        with pytest.raises(EmptyGraph):
            homophily_ratio(empty, [0, 1, 2])

    def test_mixed_case_counts_arcs(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert homophily_ratio(g, [0, 0, 0, 1]) == pytest.approx(0.5)


class TestSelectIsolated:
    def test_regular_graph_isolates_everyone(self, ring8):
        isolated, reduced = select_isolated(ring8, 3.0)
        assert isolated.size == 8
        assert reduced.n_arcs == 0

    def test_reduced_graph_never_touches_isolated(self):
        g = graph_from_edges(
            7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (5, 0), (6, 0)]
        )
        isolated, reduced = select_isolated(g, 30.0)
        iso = set(isolated.tolist())
        src, dst = reduced.arc_endpoints()
        assert iso == {4, 5, 6}
        assert not (set(src.tolist()) | set(dst.tolist())) & iso
        assert reduced.n_nodes == g.n_nodes

    def test_percentile_bounds(self, ring8):
        with pytest.raises(ValueError):
            select_isolated(ring8, 0.0)
        with pytest.raises(ValueError):
            select_isolated(ring8, 100.0)


class TestMaskEdges:
    def test_ratio_zero_identity(self, ring8):
        g = mask_edges(ring8, 0.0, seed=3)
        assert g.n_arcs == ring8.n_arcs

    def test_ratio_one_empties(self, ring8):
        assert mask_edges(ring8, 1.0, seed=3).n_arcs == 0

    def test_half_of_ten_edges_across_seeds(self):
        g = graph_from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
        for seed in range(5):
            masked = mask_edges(g, 0.5, seed=seed)
            assert masked.n_edges == 5

    def test_expected_count_formula(self, rng):
        from orthoreg.synth import sbm_graph

        g, _ = sbm_graph(30, seed=9)
        m = g.n_edges
        for ratio in (0.1, 0.33, 0.77):
            assert mask_edges(g, ratio, seed=1).n_edges == m - int(np.floor(ratio * m))

    def test_deterministic_per_seed(self):
        g = graph_from_edges(12, [(i, (i + 1) % 12) for i in range(12)])
        a = mask_edges(g, 0.5, seed=42)
        b = mask_edges(g, 0.5, seed=42)
        np.testing.assert_array_equal(a.col_indices, b.col_indices)
        np.testing.assert_array_equal(a.row_offsets, b.row_offsets)

    def test_ratio_out_of_range(self, ring8):
        with pytest.raises(ValueError):
            mask_edges(ring8, 1.5, seed=0)


class TestAddSelfLoops:
    def test_adds_diagonal_once(self, triangle):
        g = add_self_loops(triangle)
        dense = g.to_scipy().toarray()
        np.testing.assert_allclose(np.diag(dense), 1.0)
        assert g.degrees.tolist() == [3.0, 3.0, 3.0]


class TestBenchmarkCounts:
    """Structural counts against the published statistics; needs the real
    benchmark directories (see conftest.require_dataset)."""

    def test_cora_counts(self):
        from conftest import require_dataset

        graph, data = load_dataset(require_dataset("cora"))
        assert graph.n_nodes == 2708
        assert graph.n_arcs == 10556
        assert data.train_idx.size == 140
        assert data.val_idx.size == 500
        assert data.test_idx.size == 1000

    def test_citeseer_counts(self):
        from conftest import require_dataset

        graph, data = load_dataset(require_dataset("citeseer"))
        assert graph.n_nodes == 3327
        assert data.n_features == 3703
        assert data.n_classes == 6

    def test_cora_isolation_counts(self):
        from conftest import require_dataset

        graph, _ = load_dataset(require_dataset("cora"))
        isolated, reduced = select_isolated(graph, 3.0)
        assert isolated.size == 534
        assert reduced.n_arcs == 9516

    def test_citeseer_isolation_count(self):
        from conftest import require_dataset

        graph, _ = load_dataset(require_dataset("citeseer"))
        isolated, _ = select_isolated(graph, 3.0)
        assert isolated.size == 676

    def test_chameleon_homophily(self):
        from conftest import require_dataset

        graph, data = load_dataset(require_dataset("chameleon"))
        assert homophily_ratio(graph, data.labels) == pytest.approx(0.25, abs=0.02)


edge_lists = st.integers(2, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)))


def one_class_dataset(n: int) -> Dataset:
    return Dataset(features=np.arange(2.0 * n).reshape(n, 2), labels=np.zeros(n, dtype=np.int64),
                   n_classes=1, train_idx=np.array([0]), val_idx=np.array([1]),
                   test_idx=np.arange(2, n))


class TestGraphProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=edge_lists)
    def test_edge_list_round_trip_is_canonical_and_symmetric(self, case):
        # duplicates, self-loops and both orientations of an edge all occur
        n, edges = case
        assume(any(i != j for i, j in edges))
        g = graph_from_edges(n, edges)
        neighbours = [set() for _ in range(n)]
        for i, j in edges:
            if i != j:
                neighbours[i].add(j)
                neighbours[j].add(i)
        offsets, cols = g.row_offsets, g.col_indices
        assert offsets[0] == 0 and offsets[-1] == cols.size and offsets.size == n + 1
        for i in range(n):
            row = cols[offsets[i]:offsets[i + 1]]
            assert row.tolist() == sorted(neighbours[i])
        assert g.degrees.tolist() == [float(len(nb)) for nb in neighbours]
        adj = g.to_scipy()
        assert (adj != adj.T).nnz == 0
        assert np.all(adj.data == 1.0)

        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(tmp, g, one_class_dataset(n))
            g2, _ = load_dataset(tmp)
        assert g2.n_nodes == n
        np.testing.assert_array_equal(g2.row_offsets, offsets)
        np.testing.assert_array_equal(g2.col_indices, cols)


# every file load_dataset parses, with the separator between its cells
DATASET_CELLS = {
    "features.csv": ",", "labels.csv": None, "edges.txt": " ", "meta.txt": "=",
    os.path.join("splits", "train.txt"): None, os.path.join("splits", "val.txt"): None,
    os.path.join("splits", "test.txt"): None,
}


@pytest.fixture(scope="module")
def small_dataset_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("small") / "ds")
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    data = Dataset(features=np.random.default_rng(0).standard_normal((6, 3)),
                   labels=np.array([0, 1, 0, 1, 0, 1]), n_classes=2,
                   train_idx=np.array([0, 1]), val_idx=np.array([2, 3]),
                   test_idx=np.array([4, 5]))
    save_dataset(path, g, data)
    return path


class TestMalformedCells:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(DATASET_CELLS)), line=st.integers(0, 100),
           cell=st.integers(0, 100),
           token=st.from_regex(r"[a-z]{1,3}[0-9]?", fullmatch=True).filter(
               lambda t: t not in ("nan", "inf")))
    def test_malformed_cell_raises_parse_error_naming_file(self, small_dataset_dir, name,
                                                           line, cell, token):
        with tempfile.TemporaryDirectory() as tmp:
            ds = os.path.join(tmp, "ds")
            shutil.copytree(small_dataset_dir, ds)
            path = os.path.join(ds, name)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            data_lines = [k for k, text in enumerate(lines) if not text.startswith("#")]
            k = data_lines[line % len(data_lines)]
            sep = DATASET_CELLS[name]
            cells = lines[k].split(sep) if sep else [lines[k]]
            # meta.txt's key is not a number; its value is
            cells[len(cells) - 1 if sep == "=" else cell % len(cells)] = token
            lines[k] = (sep or "").join(cells)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            with pytest.raises(ParseError) as exc:
                load_dataset(ds)
        assert exc.value.exit_code == 3
        assert name in str(exc.value)
