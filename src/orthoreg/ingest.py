"""Converter from the classic citation-network text dump to the canonical
dataset directory layout.

The dump is a "content" file of ``id feat_1 ... feat_F label`` rows plus a
"cites" edge file of ``src dst`` id pairs. Raw node ids may be arbitrary
strings; they are densified in content-file order and recorded in an
``original_ids.txt`` sidecar, and the class names in ``label_names.txt``.
Splits are either copied from user-provided files (raw ids, one per line)
or sampled per class with a fixed seed. The synthetic generator writes the
same layout through ``synth.synthetic_dataset`` and
``graphio.save_dataset``.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import EmptyGraph, MissingFile, ParseError, ShapeMismatch
from .graphio import (Dataset, graph_from_edges, id_lines, read_index_file, sample_splits,
                      save_dataset, text_lines, write_lines)


def convert_content_cites(
    content_path,
    cites_path,
    out_dir,
    labels_per_class: int = 20,
    n_val: int = 500,
    n_test: int = 1000,
    seed: int = 0,
    splits_dir=None,
) -> None:
    """Build a canonical dataset directory from content/cites text files.

    With ``splits_dir`` given, ``{train,val,test}.txt`` files of raw ids are
    translated; otherwise splits are sampled (fixed labeled nodes per
    class, then validation and test from the remainder).
    """
    for path in (content_path, cites_path):
        if not os.path.isfile(path):
            raise MissingFile(f"input file not found: {path}")

    ids, rows, label_names, linenos = [], [], [], []
    for lineno, line in enumerate(text_lines(content_path), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) < 3:
            raise ParseError(f"{content_path}:{lineno}: need id, features, label")
        ids.append(parts[0])
        linenos.append(lineno)
        try:
            rows.append([float(v) for v in parts[1:-1]])
        except ValueError:
            raise ParseError(
                f"{content_path}:{lineno}: non-numeric feature value"
            ) from None
        label_names.append(parts[-1])
    if not ids:
        raise ParseError(f"{content_path}: no content rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ShapeMismatch(f"{content_path}: inconsistent feature widths {sorted(widths)}")

    id_map = {raw: i for i, raw in enumerate(ids)}
    if len(id_map) != len(ids):
        raise ParseError(f"{content_path}: duplicate node ids")
    classes = sorted(set(label_names))
    label_of = {name: i for i, name in enumerate(classes)}
    labels = np.array([label_of[name] for name in label_names], dtype=np.int64)
    features = np.asarray(rows, dtype=np.float64)
    non_finite = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if non_finite.size:
        raise ParseError(f"{content_path}:{linenos[non_finite[0]]}: non-finite feature value")
    n = len(ids)

    # citations of papers outside the content table are dropped
    graph = graph_from_edges(n, [(id_map[a], id_map[b]) for _, (a, b) in id_lines(cites_path, 2)
                                 if a in id_map and b in id_map])
    if graph.n_edges == 0:
        raise EmptyGraph(f"no edges in {cites_path}: no citation joins two distinct content rows")

    if splits_dir is not None:
        train_idx, val_idx, test_idx = (
            read_index_file(os.path.join(splits_dir, f"{name}.txt"), n, id_map)
            for name in ("train", "val", "test")
        )
    else:
        train_idx, val_idx, test_idx = sample_splits(
            labels, len(classes), labels_per_class, n_val, n_test, np.random.default_rng(seed)
        )
    data = Dataset(
        features=features,
        labels=labels,
        n_classes=len(classes),
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
    )
    save_dataset(out_dir, graph, data)
    # provenance sidecars; original_ids is informational (edges.txt already
    # holds dense ids), node_ids.txt is reserved for raw-id edge files
    write_lines(os.path.join(out_dir, "original_ids.txt"), ids)
    write_lines(os.path.join(out_dir, "label_names.txt"), classes)
