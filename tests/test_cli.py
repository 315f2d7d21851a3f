import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthoreg import cli, collapse, errors, experiments, synth
from orthoreg.cli import main
from orthoreg.experiments import TrainConfig
from orthoreg.graphio import load_dataset, normalize, save_dataset
from orthoreg.reg import RegularizerSpec
from orthoreg.tensor import sym_eigvals


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth"
    save_dataset(str(path), *synth.synthetic_dataset(
        n_nodes=120, n_classes=3, n_features=12,
        labels_per_class=10, n_val=24, n_test=45, seed=4,
    ))
    return str(path)


@pytest.fixture(scope="module")
def cora_named_dir(dataset_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("named") / "cora"
    shutil.copytree(dataset_dir, path)
    return str(path)


def resolved(out_dir) -> dict:
    with open(os.path.join(out_dir, "config.resolved")) as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh)


# a config file whose only line sets an infinite learning rate
LR_INF_CONFIG = str(Path(__file__).with_name("lr_inf.cfg"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_content_cites(tmp_path, n_nodes: int, n_classes: int = 3):
    """A content/cites dump of ``n_nodes`` papers named paper0.. in class
    type{i % n_classes}, cited around a ring."""
    content = tmp_path / "nodes.content"
    cites = tmp_path / "links.cites"
    content.write_text("".join(
        f"paper{i} {i % 2} {(i // 2) % 3} {(i * 7) % 5} type{i % n_classes}\n"
        for i in range(n_nodes)))
    cites.write_text("".join(f"paper{i} paper{(i + 1) % n_nodes}\n" for i in range(n_nodes)))
    return str(content), str(cites)


FAST_TRAIN = ["--epochs", "30", "--hidden", "8", "--embedding", "8",
              "--trials", "2", "--patience", "0"]


class TestIngest:
    def test_synthetic_ingest_roundtrips(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        code, stdout, _ = run_cli(capsys, "ingest", "--kind", "synthetic",
                                  "--out", out, "--seed", "3")
        assert code == 0
        assert json.loads(stdout.strip())["ingested"] == out
        for name in ("edges.txt", "features.csv", "labels.csv", "meta.txt"):
            assert os.path.isfile(os.path.join(out, name))

    def test_content_cites_ingest(self, tmp_path, capsys):
        content = tmp_path / "nodes.content"
        cites = tmp_path / "links.cites"
        rows = []
        for i in range(40):
            feats = " ".join(str((i * 7 + j) % 3) for j in range(5))
            rows.append(f"paper{i} {feats} type{i % 2}")
        content.write_text("\n".join(rows) + "\n")
        cites.write_text("\n".join(f"paper{i} paper{(i + 1) % 40}" for i in range(40)) + "\n")
        out = str(tmp_path / "converted")
        code, _, _ = run_cli(
            capsys, "ingest", "--kind", "content-cites",
            "--content", str(content), "--cites", str(cites), "--out", out,
            "--seed", "0",
        )
        # 40 nodes / 2 classes, default 20 per class exhausts every node, so
        # sampling val/test must fail loudly
        assert code == 3

    def test_content_cites_samples_splits(self, tmp_path, capsys):
        content, cites = write_content_cites(tmp_path, 1600)
        splits = []
        for out in (tmp_path / "a", tmp_path / "b"):
            code, _, err = run_cli(capsys, "ingest", "--kind", "content-cites",
                                   "--content", content, "--cites", cites,
                                   "--out", str(out), "--seed", "5")
            assert code == 0, err
            _, data = load_dataset(str(out))
            splits.append((data.train_idx, data.val_idx, data.test_idx))
        (train, val, test), again = splits
        assert np.bincount(data.labels[train]).tolist() == [20, 20, 20]
        assert (val.size, test.size) == (500, 1000)
        assert np.unique(np.concatenate([train, val, test])).size == 1560
        assert all(np.array_equal(x, y) for x, y in zip((train, val, test), again))

    def test_content_cites_splits_dir_translates_raw_ids(self, tmp_path, capsys):
        content, cites = write_content_cites(tmp_path, 40)
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        (split_dir / "train.txt").write_text("paper3\npaper0\n")
        (split_dir / "val.txt").write_text("paper7\n")
        (split_dir / "test.txt").write_text("paper12\npaper30\n")
        argv = ["ingest", "--kind", "content-cites", "--content", content, "--cites", cites,
                "--splits", str(split_dir)]
        out = str(tmp_path / "ds")
        code, _, err = run_cli(capsys, *argv, "--out", out)
        assert code == 0, err
        _, data = load_dataset(out)
        assert (data.train_idx.tolist(), data.val_idx.tolist(), data.test_idx.tolist()) == (
            [3, 0], [7], [12, 30])

        (split_dir / "test.txt").write_text("paper12\nnosuch\n")
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "bad"))
        assert code == 3
        assert str(split_dir / "test.txt") in err and "nosuch" in err

    def test_content_cites_without_edges_exits_3_before_writing(self, tmp_path, capsys):
        content, cites = write_content_cites(tmp_path, 40)
        # one self-citation and one citation of a paper outside the content
        Path(cites).write_text("paper1 paper1\npaper2 elsewhere\n")
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        for name, ids in (("train", "paper0\npaper1\npaper2\n"), ("val", "paper3\n"),
                          ("test", "paper4\n")):
            (split_dir / f"{name}.txt").write_text(ids)
        out = tmp_path / "ds"
        code, stdout, err = run_cli(capsys, "ingest", "--kind", "content-cites",
                                    "--content", content, "--cites", cites,
                                    "--splits", str(split_dir), "--out", str(out))
        assert code == 3
        assert cites in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_content_cites_non_finite_feature_exits_3_naming_line(self, tmp_path, capsys,
                                                                   value):
        content, cites = write_content_cites(tmp_path, 40)
        lines = Path(content).read_text().splitlines()
        assert lines[6] == "paper6 0 0 2 type0"
        lines[6] = f"paper6 0 {value} 2 type0"
        Path(content).write_text("\n".join(lines) + "\n")
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        for name, ids in (("train", "paper0\npaper1\npaper2\n"), ("val", "paper3\n"),
                          ("test", "paper4\n")):
            (split_dir / f"{name}.txt").write_text(ids)
        out = tmp_path / "ds"
        code, stdout, err = run_cli(capsys, "ingest", "--kind", "content-cites",
                                    "--content", content, "--cites", cites,
                                    "--splits", str(split_dir), "--out", str(out))
        assert code == 3
        assert f"{content}:7:" in err and stdout == ""
        assert not out.exists()

    def test_content_cites_skips_comment_lines_in_content(self, tmp_path, capsys):
        content, cites = write_content_cites(tmp_path, 1600)
        argv = ["ingest", "--kind", "content-cites", "--content", content, "--cites", cites,
                "--seed", "5", "--out"]
        code, _, err = run_cli(capsys, *argv, str(tmp_path / "plain"))
        assert code == 0, err
        lines = Path(content).read_text().splitlines()
        lines[:0] = ["# id f1 f2 f3 label"]
        lines[10:10] = ["  #paper99 is listed below", ""]
        Path(content).write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, *argv, str(tmp_path / "commented"))
        assert code == 0, err
        plain = sorted(p for p in (tmp_path / "plain").rglob("*") if p.is_file())
        assert len(plain) > 4
        for path in plain:
            twin = tmp_path / "commented" / path.relative_to(tmp_path / "plain")
            assert path.read_bytes() == twin.read_bytes(), path.name

    def test_synthetic_rejects_content_cites_flags_naming_each(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code, stdout, err = run_cli(capsys, "ingest", "--kind", "synthetic",
                                    "--splits", "/nonexistent", "--content", "nope.content",
                                    "--out", str(out))
        assert code == 2
        assert "--splits" in err and "--content" in err and "--cites" not in err
        assert stdout == "" and not out.exists()

    def test_missing_inputs_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "ingest", "--kind", "content-cites",
                               "--out", str(tmp_path / "x"))
        assert code == 2
        assert "content" in err


class TestTrain:
    def test_train_writes_all_artifacts(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "run")
        code, stdout, _ = run_cli(
            capsys, "train", "--dataset", dataset_dir, "--out", out,
            "--reg", "orthoreg", "--alpha", "2e-3", "--beta", "1e-6", "--T", "2",
            "--eigens-every", "15", *FAST_TRAIN,
        )
        assert code == 0
        for name in ("metrics.jsonl", "spectrum.csv", "report.json",
                     "checkpoint.npz", "config.resolved"):
            assert os.path.isfile(os.path.join(out, name)), name
        payload = json.loads(stdout.strip().splitlines()[-1])
        assert "mean_test_acc" in payload
        report = json.loads(Path(out, "report.json").read_text())
        assert len(report["trials"]) == 2
        resolved = Path(out, "config.resolved").read_text()
        assert "reg = orthoreg" in resolved
        assert "reg.alpha = 0.002" in resolved

    def test_missing_dataset_directory_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--dataset", str(tmp_path / "nope"),
                               "--out", str(tmp_path / "o"), *FAST_TRAIN)
        assert code == 3
        assert "nope" in err

    def test_missing_features_file_exits_3_naming_it(self, dataset_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        os.remove(broken / "features.csv")
        code, _, err = run_cli(capsys, "train", "--dataset", str(broken),
                               "--out", str(tmp_path / "o"), *FAST_TRAIN)
        assert code == 3
        assert "features.csv" in err

    def test_empty_val_split_exits_3_naming_it(self, dataset_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        (broken / "splits" / "val.txt").write_text("")
        code, _, err = run_cli(capsys, "train", "--dataset", str(broken),
                               "--out", str(tmp_path / "o"), *FAST_TRAIN)
        assert code == 3
        assert "the val split is empty" in err

    def test_negative_tradeoff_exits_2(self, dataset_dir, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "train", "--dataset", dataset_dir,
                             "--out", str(tmp_path / "o"), "--reg", "orthoreg",
                             "--alpha", "-1", *FAST_TRAIN)
        assert code == 2

    def test_divergent_run_exits_4(self, dataset_dir, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                               "--out", str(tmp_path / "o"), "--lr", "1e200",
                               "--epochs", "10", "--hidden", "8",
                               "--embedding", "8", "--trials", "1",
                               "--patience", "0")
        assert code == 4
        assert "non-finite" in err
        # numpy's overflow warnings stay silent: stderr is the one error line
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_non_finite_regularizer_gradient_exits_4(self, dataset_dir, tmp_path, capsys,
                                                     monkeypatch):
        original = experiments.regularizer_value_grad

        def poisoned(h, spec, operators):
            value, grad = original(h, spec, operators)
            grad[0, 0] = np.inf
            return value, grad

        monkeypatch.setattr(experiments, "regularizer_value_grad", poisoned)
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                               "--out", str(tmp_path / "o"), "--reg", "orthoreg",
                               *FAST_TRAIN)
        assert code == 4
        assert "regularizer gradient became non-finite at epoch 1" in err

    @pytest.mark.parametrize("flag, value, field", [
        ("--dropout", "1.0", "dropout_p"),
        ("--dropout", "1.5", "dropout_p"),
        ("--lr", "-1", "lr"),
        ("--hidden", "0", "hidden"),
        ("--embedding", "0", "embedding"),
        ("--patience", "-5", "early_stop_patience"),
        ("--weight-decay", "-1", "weight_decay"),
    ])
    def test_bad_config_value_exits_2_naming_field(self, dataset_dir, tmp_path, capsys,
                                                   flag, value, field):
        code, stdout, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                                    "--out", str(tmp_path / "o"), "--epochs", "3",
                                    "--trials", "1", flag, value)
        assert code == 2
        assert field in err
        assert stdout == ""

    @pytest.mark.parametrize("name, line, content", [
        ("features.csv", 3, "abc,1,2"),
        ("labels.csv", 1, "1.5"),
        ("splits/val.txt", None, "x"),
        ("meta.txt", None, "n_classes=four"),
        ("meta.txt", None, "n_classes: 6"),
        ("meta.txt", None, "n_clases = 5"),
        ("splits/val.txt", None, "99999999999999999999"),
        ("edges.txt", None, "0 99999999999999999999"),
    ])
    def test_malformed_dataset_file_exits_3_naming_it(self, dataset_dir, tmp_path, capsys,
                                                      name, line, content):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        path = broken / name
        lines = path.read_text().splitlines()
        if line is None:
            lines.append(content)
        else:
            lines[line - 1] = content
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "train", "--dataset", str(broken),
                               "--out", str(tmp_path / "o"), *FAST_TRAIN)
        assert code == 3
        assert name in err

    @pytest.mark.parametrize("name, content", [
        ("edges.txt", "0 120"),
        ("edges.txt", "-1 0"),
        ("edges.txt", "0 x"),
        ("splits/val.txt", "120"),
        ("splits/val.txt", "-1"),
        ("splits/val.txt", "1.5"),
    ])
    def test_bad_node_id_exits_3_naming_file_and_line(self, dataset_dir, tmp_path, capsys,
                                                      name, content):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        path = broken / name
        lines = path.read_text().splitlines() + [content]
        path.write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "train", "--dataset", str(broken),
                                    "--out", str(tmp_path / "o"), *FAST_TRAIN)
        assert code == 3
        assert f"{name}:{len(lines)}:" in err
        assert stdout == ""

    @pytest.mark.parametrize("name", ["edges.txt", "features.csv", "meta.txt",
                                      "splits/val.txt"])
    def test_undecodable_dataset_file_exits_3_naming_it(self, dataset_dir, tmp_path, capsys,
                                                         name):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        with open(broken / name, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        code, _, err = run_cli(capsys, "train", "--dataset", str(broken),
                               "--out", str(tmp_path / "o"), *FAST_TRAIN)
        assert code == 3
        assert name in err

    def test_self_loop_only_edge_list_exits_3_naming_it(self, dataset_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        (broken / "edges.txt").write_text("0 0\n1 1\n")
        code, stdout, err = run_cli(capsys, "train", "--dataset", str(broken),
                                    "--out", str(tmp_path / "o"), "--reg", "orthoreg",
                                    *FAST_TRAIN)
        assert code == 3
        assert "edges.txt" in err
        assert stdout == ""

    def test_undecodable_config_file_exits_2_naming_it(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs = 3\n# caf\xe9\n")
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                               "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "run.cfg" in err

    def test_config_line_without_equals_exits_2_naming_file_and_line(
            self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run\nepochs = 3\ntrials 1\n")
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                               "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"{cfg}:3:" in err

    def test_config_file_unknown_key_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 10\nwibble = 3\n")
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                               "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "wibble" in err

    def test_flags_override_config_file(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 9\nhidden = 8\nembedding = 8\ntrials = 1\n"
                       "early_stop_patience = 0\n")
        out = str(tmp_path / "o")
        code, _, _ = run_cli(capsys, "train", "--dataset", dataset_dir,
                             "--config", str(cfg), "--out", out, "--epochs", "11")
        assert code == 0
        metrics = Path(out, "metrics.jsonl").read_text().splitlines()
        assert len(metrics) == 11

    def test_rerun_with_same_config_reproduces_report(self, dataset_dir, tmp_path, capsys):
        args = ["train", "--dataset", dataset_dir, "--reg", "orthoreg",
                "--alpha", "1e-2", "--beta", "1e-5", *FAST_TRAIN]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(capsys, *args, "--out", out_a)[0] == 0
        assert run_cli(capsys, *args, "--out", out_b)[0] == 0

        def stripped(path):
            blob = json.loads(Path(path, "report.json").read_text())
            blob.pop("wall_clock_s", None)
            return blob

        assert stripped(out_a) == stripped(out_b)
        resolved_a = Path(out_a, "config.resolved").read_text()
        resolved_b = Path(out_b, "config.resolved").read_text()
        assert [l for l in resolved_a.splitlines() if not l.startswith("out")] == \
               [l for l in resolved_b.splitlines() if not l.startswith("out")]


    def test_records_its_default_output_directory(self, dataset_dir, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        short = ["--dataset", dataset_dir, "--epochs", "1", "--trials", "1"]
        code, stdout, err = run_cli(capsys, "train", *short)
        assert code == 0, err
        assert json.loads(stdout)["out"] == "runs/train"
        assert resolved("runs/train")["out"] == "runs/train"
        # a config file's out beats the default, and the flag beats both
        Path("run.cfg").write_text("out = from-file\n")
        assert run_cli(capsys, "train", *short, "--config", "run.cfg")[0] == 0
        assert resolved("from-file")["out"] == "from-file"
        assert run_cli(capsys, "train", *short, "--config", "run.cfg", "--out", "flag")[0] == 0
        assert resolved("flag")["out"] == "flag"

    def test_bad_thread_env_exits_2_naming_it(self, dataset_dir, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("ORTHOREG_THREADS", "many")
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                               "--out", str(tmp_path / "o"), *FAST_TRAIN)
        assert code == 2
        assert "ORTHOREG_THREADS" in err
        assert "'many'" in err

    @pytest.mark.parametrize("trials", [1, 2])
    def test_trials_flag_runs_that_many_trainings(self, dataset_dir, tmp_path, capsys,
                                                  monkeypatch, trials):
        from orthoreg import experiments

        calls = []
        original = experiments.train

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "train", counting)
        out = str(tmp_path / "o")
        code, _, _ = run_cli(capsys, "train", "--dataset", dataset_dir, "--out", out,
                             "--epochs", "5", "--hidden", "8", "--embedding", "8",
                             "--patience", "0", "--trials", str(trials))
        assert code == 0
        assert len(calls) == trials
        report = json.loads(Path(out, "report.json").read_text())
        assert len(report["trials"]) == trials
        assert report["wall_clock_s"] > 0.0
        assert len(Path(out, "metrics.jsonl").read_text().splitlines()) == 5


class TestResolution:
    def test_given_beta_kept_and_alpha_from_dataset_table(self, cora_named_dir, tmp_path,
                                                          capsys):
        out = str(tmp_path / "o")
        code, _, _ = run_cli(capsys, "train", "--dataset", cora_named_dir, "--out", out,
                             "--reg", "orthoreg", "--beta", "5e-5", "--epochs", "3",
                             "--trials", "1")
        assert code == 0
        assert resolved(out)["reg.alpha"] == "0.002"
        assert resolved(out)["reg.beta"] == "5e-05"
        report = json.loads(Path(out, "report.json").read_text())
        assert report["config"]["regularizer"]["beta"] == 5e-5

    def test_unknown_dataset_name_falls_back(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, _, _ = run_cli(capsys, "train", "--dataset", dataset_dir, "--out", out,
                             "--reg", "orthoreg", "--epochs", "3", "--trials", "1")
        assert code == 0
        assert (resolved(out)["reg.alpha"], resolved(out)["reg.beta"]) == ("0.001", "1e-06")

    def test_laplacian_lam_default(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, _, _ = run_cli(capsys, "train", "--dataset", dataset_dir, "--out", out,
                             "--reg", "laplacian", "--epochs", "3", "--trials", "1")
        assert code == 0
        assert resolved(out)["reg.lam"] == "0.1"

    @pytest.mark.parametrize("kind", ["preg", "corr_identity"])
    def test_strength_without_default_exits_2_naming_it(self, dataset_dir, tmp_path, capsys,
                                                         kind):
        code, stdout, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                                    "--out", str(tmp_path / "o"), "--reg", kind,
                                    "--epochs", "3", "--trials", "1")
        assert code == 2
        assert "lam" in err
        assert stdout == ""

    def test_suite_records_its_resolved_config(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "s")
        code, _, _ = run_cli(capsys, "suite", "coldstart", "--dataset", dataset_dir,
                             "--out", out, "--beta", "3e-6", "--epochs", "4", "--trials", "1")
        assert code == 0
        lines = resolved(out)
        assert lines["reg"] == "orthoreg"
        assert (lines["reg.alpha"], lines["reg.beta"]) == ("0.001", "3e-06")
        assert (lines["epochs"], lines["trials"], lines["seed"]) == ("4", "1", "0")
        assert (lines["dataset"], lines["out"]) == (dataset_dir, out)
        assert {"lr", "hidden", "reg.hops", "reg.pooling"} <= set(lines)

    def test_removed_center_correlation_key_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("center_correlation = false\n")
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                               "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown config key 'center_correlation'" in err

    def test_every_field_is_a_config_key_and_round_trips(self, dataset_dir, tmp_path,
                                                          capsys):
        values = {
            "kind": "orthoreg", "lam": 0.25, "alpha": 0.003, "beta": 2e-06, "hops": 3,
            "pooling": "second_hop_only",
            "lr": 0.02, "dropout_p": 0.25, "weight_decay": 0.0001, "epochs": 4,
            "hidden": 6, "embedding": 5, "seed": 7, "eigens_every": 2,
            "early_stop_patience": 3, "trials": 1,
        }
        spec_fields = [f.name for f in fields(RegularizerSpec)]
        train_fields = [f.name for f in fields(TrainConfig)
                        if f.name not in ("regularizer", "dims")]
        assert set(values) == set(spec_fields) | set(train_fields)
        key = {name: "reg" if name == "kind" else name for name in values}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key[name]} = {v}\n" for name, v in values.items()))
        out = str(tmp_path / "o")
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_dir,
                               "--config", str(cfg), "--out", out)
        assert code == 0, err
        lines = resolved(out)
        for name, v in values.items():
            line = name if name in train_fields else ("reg" if name == "kind" else f"reg.{name}")
            assert lines[line] == str(v), name


class TestExitCodes:
    @pytest.mark.parametrize("argv, code, named", [
        (["suite", "robustness", "--ratios", "1.5"], 2, "ratio"),
        (["suite", "robustness", "--ratios", "0,x"], 2, "--ratios"),
        (["bench", "--depths", "0"], 2, "depth"),
        (["bench", "--depths", "2,x"], 2, "--depths"),
        (["simulate", "--kind", "closed-form", "--dim", "0"], 2, "--dim"),
        (["simulate", "--kind", "feature-update", "--dim", "0"], 2, "--dim"),
        (["simulate", "--kind", "gd-linear", "--steps", "-3"], 2, "--steps"),
        (["simulate", "--kind", "gd-linear", "--steps", "0"], 2, "--steps"),
        (["simulate", "--kind", "closed-form", "--n", "1"], 2, "--n"),
        (["train", "--reg", "orthoreg", "--alpha", "nan"], 2, "alpha"),
        (["train", "--reg", "orthoreg", "--beta", "inf"], 2, "beta"),
        (["train", "--reg", "laplacian", "--lam", "-1"], 2, "lam"),
        (["simulate", "--kind", "closed-form", "--n", "5", "--dim", "8"], 2, "--dim"),
        (["simulate", "--kind", "gd-linear", "--n", "8", "--dim", "8"], 2, "--n"),
        (["simulate", "--kind", "free-embedding", "--lr", "0"], 2, "--lr"),
        (["simulate", "--kind", "free-embedding", "--lr", "-1"], 2, "--lr"),
        (["simulate", "--kind", "free-embedding", "--lr", "inf"], 2, "--lr"),
        (["simulate", "--kind", "free-embedding", "--lr", "nan"], 2, "--lr"),
        (["train", "--lr", "inf"], 2, "lr"),
        (["train", "--weight-decay", "inf"], 2, "weight_decay"),
        (["train", "--config", LR_INF_CONFIG], 2, "lr"),
        (["suite", "table1", "--ratios", "1.5"], 2, "ratio"),
    ])
    def test_bad_user_value_exits_2_naming_it(self, dataset_dir, tmp_path, capsys,
                                              argv, code, named):
        if argv[0] != "simulate":
            argv = argv + ["--dataset", dataset_dir]
        got, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o"))
        assert got == code
        assert named in err
        assert stdout == ""

    @pytest.mark.parametrize("argv", [
        ["ingest"], ["train"], ["simulate", "--kind", "closed-form"], ["suite", "table1"],
        ["bench"],
    ])
    def test_negative_seed_exits_2_naming_flag(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("error, code", [
        (errors.ConfigError, 2),
        (errors.ParseError, 3), (errors.MissingFile, 3), (errors.ShapeMismatch, 3),
        (errors.EmptyGraph, 3), (errors.EmptyMask, 3), (errors.InputNotWhitened, 3),
        (errors.Divergence, 4), (errors.NotSymmetric, 4),
        (errors.UnstableStepSize, 4),
    ])
    def test_error_type_carries_its_exit_code(self, tmp_path, capsys, monkeypatch,
                                              error, code):
        def fail(path):
            raise error("boom")

        monkeypatch.setattr(cli, "load_dataset", fail)
        got, _, err = run_cli(capsys, "train", "--dataset", "x",
                              "--out", str(tmp_path / "o"))
        assert got == code == error.exit_code
        assert "boom" in err


# RANGES entries that only library callers set, and the flag that sets each
# entry no flag's dest names
LIBRARY_ONLY_RANGES = {"percentile", "k", "snapshot_every", "history_every", "reps"}
LIST_FLAG_RANGES = {"mask ratio": "--ratios", "depth": "--depths"}


class TestRangeTable:
    def test_every_user_number_has_a_rule_the_readme_names(self):
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        # every flag that parses a number, apart from a fixed choice set
        numeric = [a for p in commands.values() for a in p._actions
                   if a.type not in (None, str) and not a.choices]
        assert [a.option_strings for a in numeric if a.dest not in errors.RANGES] == []
        assert [f.name for cls in (TrainConfig, RegularizerSpec) for f in fields(cls)
                if type(f.default) in (int, float) and f.name not in errors.RANGES] == []

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = next(p for p in readme.split("\n\n")
                         if p.startswith("Out-of-range user values exit 2"))
        spellings = {name: {name} for name in errors.RANGES if name not in LIBRARY_ONLY_RANGES}
        for action in numeric:
            spellings[action.dest].update(action.option_strings)
        for name, flag in LIST_FLAG_RANGES.items():
            spellings[name].add(flag)
        assert [name for name, names in spellings.items()
                if not any(f"`{s}`" in paragraph for s in names)] == []


    @pytest.mark.parametrize("name", ["epochs", "trials", "hidden", "embedding", "hops", "seed",
                                      "eigens_every", "early_stop_patience", "snapshot_every",
                                      "history_every", "depth", "k", "n", "dim", "steps",
                                      "ORTHOREG_THREADS"])
    def test_integer_rule_takes_integers_only(self, name):
        with pytest.raises(errors.ConfigError, match=f"{name} must be an integer in"):
            errors.check_range(name, 2.5)
        with pytest.raises(errors.ConfigError, match=name):
            errors.check_range(name, 2.0)
        assert errors.check_range(name, np.int64(2)) == 2


class TestSimulate:
    def test_closed_form_verdict_is_monotone(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code, stdout, _ = run_cli(capsys, "simulate", "--kind", "closed-form",
                                  "--graph", "sbm", "--seed", "7", "--out", out)
        assert code == 0
        verdict = json.loads(Path(out, "verdict.json").read_text())
        assert verdict["monotone_ratio_ok"] is True
        assert os.path.isfile(os.path.join(out, "dynamics.csv"))
        assert json.loads(stdout.strip())["monotone_ratio_ok"] is True

    def test_feature_update_shrinks_nesum(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code, _, _ = run_cli(capsys, "simulate", "--kind", "feature-update",
                             "--graph", "sbm", "--tau", "0.5", "--steps", "200",
                             "--seed", "3", "--out", out)
        assert code == 0
        verdict = json.loads(Path(out, "verdict.json").read_text())
        detail = verdict["details"][0]
        assert detail["final_nesum"] < detail["initial_nesum"]

    def test_records_every_flag(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code, _, err = run_cli(capsys, "simulate", "--kind", "gd-linear", "--graph", "ring",
                               "--n", "30", "--dim", "4", "--steps", "40", "--seed", "3",
                               "--out", out)
        assert code == 0, err
        assert resolved(out) == {"kind": "gd-linear", "graph": "ring", "n": "30", "dim": "4",
                                 "steps": "40", "seed": "3", "tau": "0.5", "sign": "1",
                                 "alpha": "0.01", "beta": "1e-05", "lr": "200.0", "out": out}

    def test_tau_out_of_range_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "simulate", "--kind", "feature-update",
                               "--tau", "1.5", "--out", str(tmp_path / "sim"))
        assert code == 2
        assert "tau" in err

    def test_gd_linear_runs(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code, _, _ = run_cli(capsys, "simulate", "--kind", "gd-linear",
                             "--graph", "sbm", "--steps", "60", "--out", out)
        assert code == 0
        assert os.path.isfile(os.path.join(out, "dynamics.csv"))

    def test_closed_form_star_stays_finite(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code, _, err = run_cli(capsys, "simulate", "--kind", "closed-form",
                               "--graph", "star", "--out", out)
        assert code == 0, err
        with open(os.path.join(out, "dynamics.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50 * 8
        for row in rows:
            assert np.isfinite(float(row["singular_value"]))
            assert np.isfinite(float(row["eigenvalue"]))
        verdict = json.loads(Path(out, "verdict.json").read_text())
        assert verdict["monotone_ratio_ok"] is True

    def test_closed_form_horizon_cap_idle_on_default_sbm(self, tmp_path, capsys):
        # the cap at 50 / lambda_max does not bind here, so the run is the
        # uncapped flow over [0, 12 / spread], written byte for byte
        out = str(tmp_path / "sim")
        code, _, _ = run_cli(capsys, "simulate", "--kind", "closed-form", "--out", out)
        assert code == 0
        rng = np.random.default_rng(0)
        graph, _ = synth.sbm_graph(n_nodes=40, seed=0)
        x = collapse.whiten(rng.standard_normal((40, 8)))
        p = collapse.build_p(x, normalize(graph, "laplacian"))
        eigs = sym_eigvals(p)
        times = np.linspace(0.0, 12.0 / float(eigs[0] - eigs[-1]), 50)
        run = collapse.closed_form_trajectory(p, np.eye(8), times)
        expected = str(tmp_path / "expected.csv")
        collapse.write_dynamics_csv(run, expected)
        with open(expected, "rb") as want, open(os.path.join(out, "dynamics.csv"), "rb") as got:
            assert got.read() == want.read()
        verdict = json.loads(Path(out, "verdict.json").read_text())
        assert len(verdict["details"]) == 50

    @pytest.mark.parametrize("graph", ["sbm", "ring", "path"])
    def test_gd_linear_verdict_monotone_at_defaults(self, tmp_path, capsys, graph):
        out = str(tmp_path / "sim")
        code, _, _ = run_cli(capsys, "simulate", "--kind", "gd-linear",
                             "--graph", graph, "--out", out)
        assert code == 0
        verdict = json.loads(Path(out, "verdict.json").read_text())
        assert verdict["monotone_ratio_ok"] is True
        # the verdict covers the snapshots above the floor; the CSV keeps all
        assert 2 <= len(verdict["details"]) < 51
        with open(os.path.join(out, "dynamics.csv")) as fh:
            steps = {row["step"] for row in csv.DictReader(fh)}
        assert len(steps) == 51
        for detail in verdict["details"]:
            assert detail["small_over_large"] >= collapse.RATIO_FLOOR

    def test_diverging_run_prints_only_its_error_line(self, tmp_path, capsys):
        code, stdout, err = run_cli(capsys, "simulate", "--kind", "free-embedding",
                                    "--lr", "1e306", "--out", str(tmp_path / "sim"))
        assert code == 4
        assert (stdout, err) == ("", "error: loss became non-finite at step 1\n")

    def test_blow_up_on_the_last_step_exits_4(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, stdout, err = run_cli(capsys, "simulate", "--kind", "free-embedding",
                                    "--steps", "1", "--lr", "1e306", "--out", str(out))
        assert code == 4
        assert (stdout, err) == ("", "error: loss became non-finite at step 1\n")
        assert not (out / "verdict.json").exists()

    def test_defaults_live_in_the_parser(self):
        args = cli.build_parser().parse_args(["simulate", "--kind", "free-embedding"])
        assert (args.tau, args.alpha, args.beta, args.lr) == (0.5, 1e-2, 1e-5, 200.0)

    def test_free_embedding_reaches_orthogonality(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code, _, _ = run_cli(capsys, "simulate", "--kind", "free-embedding",
                             "--graph", "ring", "--n", "8", "--dim", "2",
                             "--steps", "5000", "--out", out)
        assert code == 0
        verdict = json.loads(Path(out, "verdict.json").read_text())
        assert verdict["monotone_ratio_ok"] is True


SHARED_RUN_FLAGS = ["--dataset", "--out", "--alpha", "--beta", "--lam", "--T", "--epochs",
                    "--seed", "--trials"]


@pytest.mark.parametrize("command", ["train", "suite"])
def test_help_lists_the_shared_run_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out.split()
    assert [flag for flag in SHARED_RUN_FLAGS if flag not in listed] == []


class TestSuite:
    def test_unknown_suite_exits_2_listing_names(self, dataset_dir, tmp_path, capsys):
        code, _, err = run_cli(capsys, "suite", "wrong", "--dataset", dataset_dir,
                               "--out", str(tmp_path / "s"))
        assert code == 2
        for name in ("table1", "table3", "coldstart", "robustness"):
            assert name in err

    def test_bench_is_only_a_command_of_its_own(self, dataset_dir, tmp_path, capsys):
        code, _, err = run_cli(capsys, "suite", "bench", "--dataset", dataset_dir,
                               "--out", str(tmp_path / "s"))
        assert code == 2
        assert "unknown suite 'bench'" in err
        for argv in (["bench", "--trials", "3"], ["suite", "coldstart", "--depths", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--dataset", dataset_dir, "--out", str(tmp_path / "s")])
            assert exc.value.code == 2

    def test_table3_produces_variant_rows(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "s")
        code, _, _ = run_cli(capsys, "suite", "table3", "--dataset", dataset_dir,
                             "--out", out, "--alpha", "1e-2", "--beta", "1e-5",
                             "--epochs", "20", "--trials", "1")
        assert code == 0
        rows = Path(out, "table3.csv").read_text().splitlines()
        labels = [r.split(",")[0] for r in rows[1:]]
        assert labels == ["baseline", "alpha=0", "beta=0", "T=1", "T=2", "T=3"]

    def test_bench_suite_row_layout(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "s")
        code, _, _ = run_cli(capsys, "bench", "--dataset", dataset_dir,
                             "--out", out, "--depths", "2,3")
        assert code == 0
        rows = Path(out, "bench.csv").read_text().splitlines()
        assert rows[0] == "row,mlp_s,gcn_s,gcn_over_mlp"
        assert len(rows) == 3

    def test_bench_checks_depths_before_loading_the_dataset(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "--dataset", str(tmp_path / "nope"),
                               "--out", str(tmp_path / "s"), "--depths", "2,0")
        assert code == 2
        assert "depth must be an integer in [1, inf), got 0" in err

    def test_bench_records_every_flag(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "s")
        code, _, err = run_cli(capsys, "bench", "--dataset", dataset_dir, "--out", out,
                               "--depths", "2,3", "--seed", "5")
        assert code == 0, err
        assert resolved(out) == {"dataset": dataset_dir, "out": out, "depths": "2,3",
                                 "seed": "5"}

    def test_coldstart_isolates_once(self, dataset_dir, tmp_path, capsys, monkeypatch):
        calls = []
        original = experiments.select_isolated
        monkeypatch.setattr(experiments, "select_isolated",
                            lambda *args: calls.append(args) or original(*args))
        code, _, _ = run_cli(capsys, "suite", "coldstart", "--dataset", dataset_dir,
                             "--out", str(tmp_path / "s"), "--epochs", "2", "--trials", "1")
        assert code == 0
        assert len(calls) == 1

    def test_coldstart_suite_rows(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "s")
        code, _, _ = run_cli(capsys, "suite", "coldstart", "--dataset", dataset_dir,
                             "--out", out, "--epochs", "15", "--trials", "1")
        assert code == 0
        rows = Path(out, "coldstart.csv").read_text().splitlines()
        labels = [r.split(",")[0] for r in rows[1:]]
        assert labels == ["orthoreg", "mlp", "gcn"]


VALID_CONFIG_LINES = ["epochs = 3", "hidden = 8", "lr = 0.01", "beta = 1e-4",
                      "pooling = average_1toT", "", "# a comment", "  trials = 1  # trailing"]
TYPED_CONFIG_KEYS = sorted(key for key, parse in cli.CONFIG_KEYS.items() if parse is not str)
# lowercase words neither int nor float accepts
BAD_WORDS = st.from_regex(r"[a-z]{1,6}", fullmatch=True).filter(
    lambda w: w not in ("nan", "inf"))


@st.composite
def malformed_configs(draw):
    """Config-file lines with one malformed line among valid ones, and that
    line's 1-based number."""
    before = draw(st.lists(st.sampled_from(VALID_CONFIG_LINES), max_size=6))
    after = draw(st.lists(st.sampled_from(VALID_CONFIG_LINES), max_size=3))
    word = draw(BAD_WORDS)
    bad = draw(st.sampled_from([
        word,                                        # no '='
        f"= {word}",                                 # no key
        f"{word}_key = 1",                           # unknown key
        f"{draw(st.sampled_from(TYPED_CONFIG_KEYS))} = {word}",  # unparseable value
    ]))
    return before + [bad] + after, len(before) + 1


class TestConfigFileProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=malformed_configs())
    def test_malformed_line_exits_2_naming_path_and_line(self, dataset_dir, case):
        lines, lineno = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["train", "--dataset", dataset_dir, "--config", cfg,
                             "--out", os.path.join(tmp, "o")])
            assert not os.path.exists(os.path.join(tmp, "o"))
        assert code == 2
        assert f"{cfg}:{lineno}:" in err.getvalue()
        assert out.getvalue() == ""
