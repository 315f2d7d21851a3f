"""The on-disk text convention of every output (UTF-8, LF line ends, a final
LF), checked once over the files each subcommand writes, and the rule that
keeps text I/O in one place: only graphio's writers open a file to write
text, and only graphio.text_lines opens one to read it."""

import ast
from pathlib import Path

import pytest

import orthoreg
from orthoreg.cli import main

PACKAGE_DIR = Path(orthoreg.__file__).parent

# the functions allowed to open a file, by module file name, each with the
# one kind of open it may make
OPENERS = {"graphio.py": {"text_lines": "read", "write_lines": "write", "write_csv": "write"}}

# numpy's binary archive; every other output is text
BINARY_OUTPUTS = {".npz"}


def test_every_text_output_is_utf8_lf_terminated(tmp_path, capsys):
    data = str(tmp_path / "ds")
    content, cites, splits = (tmp_path / "c.content", tmp_path / "c.cites",
                              tmp_path / "splits")
    content.write_text("".join(f"p{i} {i % 2} {i % 3} class{i % 2}\n" for i in range(12)))
    cites.write_text("".join(f"p{i} p{(i + 1) % 12}\n" for i in range(12)))
    splits.mkdir()
    for name, ids in (("train", "p0\np1\n"), ("val", "p2\np3\n"), ("test", "p4\np5\n")):
        (splits / f"{name}.txt").write_text(ids)
    small = ["--epochs", "4", "--trials", "1"]
    runs = [
        ["ingest", "--kind", "synthetic", "--out", data],
        ["ingest", "--kind", "content-cites", "--content", str(content), "--cites", str(cites),
         "--splits", str(splits), "--out", str(tmp_path / "cc")],
        ["train", "--dataset", data, "--reg", "orthoreg", "--eigens-every", "2", *small,
         "--hidden", "8", "--embedding", "8",
         "--out", str(tmp_path / "train")],
        *(["simulate", "--kind", kind, "--steps", "10", "--out", str(tmp_path / kind)]
          for kind in ("closed-form", "gd-linear", "feature-update", "free-embedding")),
        ["suite", "table3", "--dataset", data, *small, "--out", str(tmp_path / "table3")],
        ["bench", "--dataset", data, "--depths", "2", "--out", str(tmp_path / "bench")],
    ]
    for argv in runs:
        assert main(argv) == 0, (argv, capsys.readouterr().err)

    written = [path for path in tmp_path.rglob("*")
               if path.is_file() and path.suffix not in BINARY_OUTPUTS
               and path.parent not in (tmp_path, splits)]
    names = {path.name for path in written}
    assert {"metrics.jsonl", "spectrum.csv", "report.json", "config.resolved",
            "dynamics.csv", "verdict.json", "table3.csv", "table3.json", "bench.csv",
            "bench.json", "edges.txt", "meta.txt", "original_ids.txt",
            "label_names.txt"} <= names
    for path in written:
        text = path.read_bytes().decode("utf-8")
        assert "\r" not in text, path
        assert text.endswith("\n"), path


def _open_mode(call: ast.Call):
    """The mode of an ``open(...)`` call: its constant text, "r" when it is
    not given, or None when it is not a constant."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else None


def _open_sites(tree):
    """(enclosing function name, call) for every ``open(...)`` call."""
    def visit(node, func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            yield func, node
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            yield from visit(child, inner)
    yield from visit(tree, None)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_only_graphio_writers_open_files_to_write(module):
    path = PACKAGE_DIR / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = OPENERS.get(module, {})
    openers = {}
    for func, call in _open_sites(tree):
        mode = _open_mode(call)
        kind = "read" if mode is not None and not set(mode) & set("wax+") else "write"
        assert allowed.get(func) == kind, (
            f"{module}:{call.lineno}: open(..., {mode!r}) in {func or 'module scope'}; "
            "read text through graphio.text_lines and write it through "
            "graphio.write_lines, write_csv or write_json")
        openers[func] = kind
    assert openers == allowed
