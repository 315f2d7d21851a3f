"""Command-line entry point.

Subcommands: ``ingest`` (build a canonical dataset directory), ``train``
(one training configuration, writing metrics.jsonl / spectrum.csv /
report.json / checkpoint.npz), ``simulate`` (collapse-dynamics runs,
writing dynamics.csv and verdict.json), ``suite`` (one table of
experiments.SUITES: table1, table3, coldstart, robustness), and ``bench``
(the inference benchmark, MLP against graph-convolution forward).

Configuration comes from an optional flat ``key = value`` file plus flags;
flags override the file, and a setting given by neither takes its
TrainConfig / RegularizerSpec default, or for a regularizer strength its
kind's default (reg.REGULARIZERS). Every run echoes the effective
configuration (``simulate`` and ``bench``: every flag) to
``config.resolved`` in its output directory. Exit codes:
0 success, otherwise the ``exit_code`` of the package error raised (2
configuration error, 3 data error, 4 numerical divergence). ``stderr``
carries human-readable messages; ``stdout`` carries at most one final JSON
line. ``ORTHOREG_THREADS`` caps trial-level parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace

from . import collapse, experiments, ingest, synth
from .errors import ConfigError, OrthoRegError, check_range, check_ranges
from .experiments import TrainConfig
from .graphio import key_value_lines, load_dataset, save_dataset, write_csv, write_json, write_lines
from .net import save_checkpoint
from .reg import POOL_AVERAGE, POOL_SECOND_HOP, REGULARIZERS, RegularizerSpec


# config keys, named as their flags' dests: every RegularizerSpec field
# (``kind`` spelled ``reg``), every TrainConfig field but the nested spec and
# the explicit layer dims, and the run's dataset and output directory. A
# value parses by the type of its field's default.
SPEC_KEYS = {"reg" if f.name == "kind" else f.name: f for f in fields(RegularizerSpec)}
TRAIN_KEYS = {f.name: f for f in fields(TrainConfig) if f.name not in ("regularizer", "dims")}
CONFIG_KEYS = {
    **{key: type(f.default) for key, f in {**SPEC_KEYS, **TRAIN_KEYS}.items()},
    "dataset": str,
    "out": str,
}


def _parse_config_file(path) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, key, value in key_value_lines(path, ConfigError):
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: bad value for '{key}': {value!r}"
            ) from None
    return values


def _merge_config(args, file_values: dict) -> dict:
    merged = dict(file_values)
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _train_config_from(merged: dict) -> TrainConfig:
    """The TrainConfig of the merged settings: a regularizer strength that
    is not set takes its kind's default (see
    experiments.resolve_regularizer), any other setting its field's."""
    spec = experiments.resolve_regularizer(
        {f.name: merged[key] for key, f in SPEC_KEYS.items() if key in merged},
        merged.get("dataset") or "",
    )
    return TrainConfig(regularizer=spec, **{k: merged[k] for k in TRAIN_KEYS if k in merged})


def _write_resolved(out_dir, lines: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_lines(os.path.join(out_dir, "config.resolved"),
                (f"{key} = {lines[key]}" for key in sorted(lines)))


def _resolved(config: TrainConfig, merged: dict) -> dict:
    """A training run's config.resolved lines: every field of ``config`` (a
    RegularizerSpec field as reg.<field>, the kind as reg) and the run's
    dataset and out."""
    lines = {key if key == "reg" else f"reg.{key}": getattr(config.regularizer, f.name)
             for key, f in SPEC_KEYS.items()}
    lines.update({key: getattr(config, key) for key in TRAIN_KEYS})
    lines.update({key: merged[key] for key in ("dataset", "out") if key in merged})
    return lines


def _flags(args) -> dict:
    """Every flag of a parsed command line, by its dest."""
    return {key: value for key, value in vars(args).items() if key not in ("command", "func")}


def _load(dataset_path: str):
    if not dataset_path:
        raise ConfigError("a --dataset directory is required")
    return load_dataset(dataset_path)


def _write_suite_outputs(out_dir, name, rows: list, header: list) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows)
    write_json(os.path.join(out_dir, f"{name}.json"), [dict(zip(header, row)) for row in rows])


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take non-negative integers."""
    try:
        return check_range("seed", int(text))
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _flag_values(text: str, parse, flag: str) -> list:
    """The comma-separated values of ``flag``, each parsed by ``parse``."""
    try:
        return [parse(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"{flag} takes comma-separated {parse.__name__} values, got {text!r}"
        ) from None


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    if args.kind == "synthetic":
        stray = [f"--{name}" for name in ("content", "cites", "splits")
                 if getattr(args, name) is not None]
        if stray:
            raise ConfigError(f"--kind synthetic takes no {', '.join(stray)}; "
                              "they apply to --kind content-cites")
        save_dataset(args.out, *synth.synthetic_dataset(seed=args.seed))
    else:
        if not args.content or not args.cites:
            raise ConfigError("content-cites ingest needs --content and --cites")
        ingest.convert_content_cites(args.content, args.cites, args.out, seed=args.seed,
                                     splits_dir=args.splits)
    print(json.dumps({"ingested": args.out}))
    return 0


def cmd_train(args) -> int:
    file_values = _parse_config_file(args.config) if args.config else {}
    merged = _merge_config(args, file_values)
    out_dir = merged.get("out", "runs/train")
    config = _train_config_from(merged)
    graph, data = _load(merged.get("dataset"))

    tuned = None
    if getattr(args, "tune", False):
        if config.regularizer.kind != "orthoreg":
            raise ConfigError("--tune applies to the orthoreg regularizer")
        tuned = experiments.tune_coarse_grid(graph, data, base_config=config)
        best = tuned["best"]
        config.regularizer = replace(config.regularizer, alpha=best["alpha"], beta=best["beta"])

    _write_resolved(out_dir, _resolved(config, merged))

    def write_artifacts(params, history):
        experiments.write_metrics_jsonl(history, os.path.join(out_dir, "metrics.jsonl"))
        experiments.write_spectrum_csv(history, os.path.join(out_dir, "spectrum.csv"))
        save_checkpoint(params, os.path.join(out_dir, "checkpoint.npz"))

    report = experiments.run_trials(config, graph, data, on_first_trial=write_artifacts)
    if tuned is not None:
        report.extras["tuned"] = tuned["best"]
    write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    print(json.dumps({"mean_test_acc": report.mean_acc, "std": report.std_acc,
                      "out": out_dir}))
    return 0


def cmd_simulate(args) -> int:
    out_dir = args.out or "runs/simulate"
    check_ranges(vars(args), "--{}")
    if args.kind in collapse.WEIGHT_RUN_KINDS and args.dim >= args.n:
        raise ConfigError(f"--dim must be below --n for --kind {args.kind}, "
                          f"got --dim {args.dim} and --n {args.n}")
    graph = synth.GRAPHS[args.graph](args.n, args.seed)
    os.makedirs(out_dir, exist_ok=True)
    run, verdict = collapse.SIMULATIONS[args.kind](
        graph, dim=args.dim, steps=args.steps, seed=args.seed, tau=args.tau, sign=args.sign,
        alpha=args.alpha, beta=args.beta, lr=args.lr)
    if run is not None:
        collapse.write_dynamics_csv(run, os.path.join(out_dir, "dynamics.csv"))
    write_json(os.path.join(out_dir, "verdict.json"), {"kind": args.kind, **asdict(verdict)})
    _write_resolved(out_dir, {**_flags(args), "out": out_dir})
    print(json.dumps({"kind": args.kind, "monotone_ratio_ok": verdict.monotone_ratio_ok,
                      "out": out_dir}))
    return 0


def cmd_suite(args) -> int:
    if args.name not in experiments.SUITES:
        raise ConfigError(
            f"unknown suite '{args.name}'; valid suites: {', '.join(experiments.SUITES)}"
        )
    out_dir = args.out or f"runs/suite-{args.name}"
    merged = {**_merge_config(args, {}), "out": out_dir}

    def config_for(kind) -> TrainConfig:
        return _train_config_from({**merged, "reg": kind})

    ortho = config_for("orthoreg")
    ratios = [check_range("mask ratio", r) for r in _flag_values(args.ratios, float, "--ratios")]
    graph, data = _load(args.dataset)
    rows = experiments.SUITES[args.name](config_for, graph, data, ratios=ratios)
    _write_suite_outputs(out_dir, args.name,
                         [[label, r.mean_acc, r.std_acc, len(r.per_trial)] for label, r in rows],
                         ["row", "mean", "std", "n_trials"])
    _write_resolved(out_dir, _resolved(ortho, merged))
    print(json.dumps({"suite": args.name, "out": out_dir}))
    return 0


def cmd_bench(args) -> int:
    out_dir = args.out or "runs/suite-bench"
    graph, data = _load(args.dataset)
    depths = _flag_values(args.depths, int, "--depths")
    rows = [[f"depth={r['depth']}", r["mlp_s"], r["gcn_s"], r["gcn_over_mlp"]]
            for r in experiments.inference_benchmark(graph, data, depths=depths, seed=args.seed)]
    _write_suite_outputs(out_dir, "bench", rows, ["row", "mlp_s", "gcn_s", "gcn_over_mlp"])
    _write_resolved(out_dir, {**_flags(args), "out": out_dir})
    print(json.dumps({"suite": "bench", "out": out_dir}))
    return 0


# ---------------------------------------------------------------------------


# the flags train and suite share, each with its dest (a config key) and type
RUN_FLAGS = (("--dataset", "dataset", str), ("--out", "out", str),
             ("--alpha", "alpha", float), ("--beta", "beta", float), ("--lam", "lam", float),
             ("--T", "hops", int), ("--epochs", "epochs", int), ("--seed", "seed", _seed),
             ("--trials", "trials", int))


def _add_run_flags(parser) -> None:
    for flag, dest, kind in RUN_FLAGS:
        parser.add_argument(flag, dest=dest, type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoreg",
        description="graph-regularized MLP training and collapse-dynamics lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build a canonical dataset directory")
    p_ingest.add_argument("--kind", choices=["synthetic", "content-cites"],
                          default="synthetic")
    p_ingest.add_argument("--content")
    p_ingest.add_argument("--cites")
    p_ingest.add_argument("--splits")
    p_ingest.add_argument("--seed", type=_seed, default=0)
    p_ingest.add_argument("--out", required=True)
    p_ingest.set_defaults(func=cmd_ingest)

    p_train = sub.add_parser("train", help="train one configuration")
    _add_run_flags(p_train)
    p_train.add_argument("--config", help="flat key = value config file")
    p_train.add_argument("--reg", choices=list(REGULARIZERS))
    p_train.add_argument("--pooling", choices=[POOL_AVERAGE, POOL_SECOND_HOP])
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--dropout", dest="dropout_p", type=float)
    p_train.add_argument("--weight-decay", dest="weight_decay", type=float)
    p_train.add_argument("--hidden", type=int)
    p_train.add_argument("--embedding", type=int)
    p_train.add_argument("--eigens-every", dest="eigens_every", type=int)
    p_train.add_argument("--patience", dest="early_stop_patience", type=int)
    p_train.add_argument("--tune", action="store_true",
                         help="coarse-grid alpha/beta search before training")
    p_train.set_defaults(func=cmd_train)

    p_sim = sub.add_parser("simulate", help="collapse-dynamics simulations")
    p_sim.add_argument("--kind", choices=list(collapse.SIMULATIONS), required=True)
    p_sim.add_argument("--graph", choices=list(synth.GRAPHS), default="sbm")
    p_sim.add_argument("--n", type=int, default=40)
    p_sim.add_argument("--dim", type=int, default=8)
    p_sim.add_argument("--steps", type=int, default=200)
    p_sim.add_argument("--tau", type=float, default=0.5)
    p_sim.add_argument("--sign", type=int, choices=[1, -1], default=1)
    p_sim.add_argument("--alpha", type=float, default=1e-2)
    p_sim.add_argument("--beta", type=float, default=1e-5)
    p_sim.add_argument("--lr", type=float, default=200.0)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_suite = sub.add_parser("suite", help="consolidated experiment suites")
    p_suite.add_argument("name")
    _add_run_flags(p_suite)
    p_suite.add_argument("--ratios", default="0,0.2,0.4", help="comma-separated mask ratios")
    p_suite.set_defaults(func=cmd_suite)

    p_bench = sub.add_parser("bench", help="inference benchmark")
    p_bench.add_argument("--dataset")
    p_bench.add_argument("--out")
    p_bench.add_argument("--depths", default="2,3,4", help="comma-separated network depths")
    p_bench.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OrthoRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
