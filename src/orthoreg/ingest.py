"""Converters that produce the canonical dataset directory layout.

Two sources are supported: the classic citation-network text dump (a
"content" file of ``id feat_1 ... feat_F label`` rows plus a "cites" edge
file of ``src dst`` id pairs), and the built-in synthetic generator. Raw
node ids may be arbitrary strings; they are densified in content-file
order and recorded in a ``node_ids.txt`` sidecar. Splits are either copied
from user-provided files (raw ids, one per line) or sampled per class with
a fixed seed.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import MissingFile, ParseError, ShapeMismatch
from .graphio import Dataset, build_graph, sample_splits, save_dataset, text_lines
from .synth import synthetic_dataset


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

    ids, rows, label_names = [], [], []
    for lineno, line in enumerate(text_lines(content_path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 3:
            raise ParseError(f"{content_path}:{lineno}: need id, features, label")
        ids.append(parts[0])
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
    n = len(ids)

    src, dst = [], []
    for lineno, line in enumerate(text_lines(cites_path), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ParseError(f"{cites_path}:{lineno}: expected two ids")
        a, b = parts
        if a not in id_map or b not in id_map:
            continue  # citations to papers outside the content table
        src.append(id_map[a])
        dst.append(id_map[b])
    graph = build_graph(n, np.array(src + dst), np.array(dst + src))

    if splits_dir is not None:
        def read_split(name):
            path = os.path.join(splits_dir, f"{name}.txt")
            if not os.path.isfile(path):
                raise MissingFile(f"split file not found: {path}")
            raw = [line.strip() for line in text_lines(path) if line.strip()]
            try:
                return np.array([id_map[r] for r in raw], dtype=np.int64)
            except KeyError as exc:
                raise ParseError(f"{path}: unknown node id {exc}") from None

        train_idx, val_idx, test_idx = (
            read_split("train"), read_split("val"), read_split("test"),
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
    with open(os.path.join(out_dir, "original_ids.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(ids) + "\n")
    with open(os.path.join(out_dir, "label_names.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(classes) + "\n")


def write_synthetic(out_dir, **kwargs) -> None:
    """Generate and save a synthetic classification dataset."""
    graph, data = synthetic_dataset(**kwargs)
    save_dataset(out_dir, graph, data)
