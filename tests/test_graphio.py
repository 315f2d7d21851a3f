import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from orthoreg.tensor import sym_eigvals


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class TestLoadEdgeList:
    def test_two_edge_path(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "0 1\n1 2\n"))
        assert g.n_nodes == 3
        assert g.n_arcs == 4
        src, dst = g.arc_endpoints()
        assert set(zip(src.tolist(), dst.tolist())) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_empty_file_raises(self, tmp_path):
        with pytest.raises(EmptyGraph):
            load_edge_list(write(tmp_path / "e.txt", "# only comments\n"))

    def test_malformed_line_names_line_number(self, tmp_path):
        with pytest.raises(ParseError, match=":2:"):
            load_edge_list(write(tmp_path / "e.txt", "0 1\n0 1 2\n"))

    def test_non_integer_ids_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="integers"):
            load_edge_list(write(tmp_path / "e.txt", "a b\n"))

    def test_duplicates_and_reverse_arcs_deduplicated(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "0 1\n1 0\n0 1\n"))
        assert g.n_arcs == 2
        assert g.n_edges == 1

    def test_self_loops_dropped(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "0 0\n0 1\n"))
        assert g.n_arcs == 2
        assert g.degrees.tolist() == [1.0, 1.0]

    def test_header_overrides_node_count(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "# n_nodes=5\n0 1\n"))
        assert g.n_nodes == 5
        assert g.degrees.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_edge_list(tmp_path / "absent.txt")

    def test_symmetry_invariant(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "0 3\n1 2\n2 3\n"))
        a = g.to_scipy()
        assert (a != a.T).nnz == 0

    def test_canonical_csr_layout(self, tmp_path):
        g = load_edge_list(write(tmp_path / "e.txt", "3 0\n2 0\n1 0\n3 1\n"))
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
