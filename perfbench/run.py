"""orthoreg benchmark: training epochs, feature-only inference, the
``orthoreg train`` command and the collapse lab, end to end and per layer.

    python3 perfbench/run.py --workload cora-sparse --seed 1 --seconds 60 --trace 0

Run from the root of a checkout. The benchmark generates its seeded
stand-in dataset under ``.perfbench/work/``, loads the package from
``src/``, measures for about ``--seconds`` seconds, checks the outputs, and
prints one metric per line followed by a final JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics with no wrappers installed; ``--trace 1`` wraps the
layer functions and reports the per-layer metrics instead. The full
result, with the environment block and the stand-in's measured shape, is
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cora-sparse", "collapse-lab")
# One BLAS thread, below the cap of one per usable core: on a shared 2-vCPU
# host a second BLAS thread doubles GEMM speed only while no other tenant
# runs; beside one busy neighbour it is no faster than one thread, and
# far less steady.
BLAS_THREADS = 1
REFERENCE_S = 2.0
REFERENCE_MAX_CALLS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> int:
    """Set the BLAS thread count (at most the cores this process may use),
    run trials serially, and return the core count; must happen before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    os.environ.pop("ORTHOREG_THREADS", None)
    return nproc


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orthoreg", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path[:0] = [SRC, HERE]
    # a terminated run still removes its work directory and its CLI child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import report
    import stages
    import standins
    import tracer as tracing

    workload = stages.WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench", "work",
                            f"{args.workload}-seed{args.seed}-{os.getpid()}")
    data_dir = os.path.join(work_dir, workload.target.name)
    try:
        t0 = time.perf_counter()
        shape = standins.materialize(workload.target, args.seed, data_dir)
        generate_s = time.perf_counter() - t0
        tracer = tracing.Tracer() if args.trace else None
        ctx = stages.Context(args.workload, args.seed, data_dir, work_dir, tracer)
        reference_s = 0.0
        stages.setup(ctx)
        stages.warm_up(ctx)
        if tracer is None:
            steps = stages.measure(ctx, SRC, args.seconds)
            metrics = report.end_to_end(ctx.samples)
            detail = {}
        else:
            tracing.install(tracer)
            try:
                steps = stages.measure(ctx, SRC, args.seconds)
            finally:
                tracer.restore()
            # untraced calls after the traced ones, so both see a warm
            # allocator: they must repeat the traced loss trajectories, and
            # they are the base of the overhead ratio
            for arm in stages.ARMS:
                walls = []
                while len(walls) < REFERENCE_MAX_CALLS and sum(walls) < REFERENCE_S:
                    walls.append(stages.train_arm(ctx, arm, record=False)[2])
                reference_s += statistics.median(walls) / workload.epochs
            metrics, detail = report.per_layer(tracer.spans, ctx, reference_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = ctx.checks
    env = report.environment(args.workload, args.seed, nproc)
    print("env " + json.dumps(env))
    print("standin " + json.dumps(shape))
    print(f"steps {steps}  generate_s {generate_s:.3f}  "
          f"error_rate {checks.failed / max(1, checks.attempted):.4g} "
          f"({checks.failed} failed of {checks.attempted})")
    for row in report.format_rows(metrics):
        print(row)

    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "standin": shape, "steps": steps,
                   "seconds": args.seconds, "generate_s": generate_s,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "layer_percentiles": detail,
                   "samples": {k: report.percentile_summary(v) for k, v in ctx.samples.items()},
                   "raw_samples": ctx.samples,
                   "failures": checks.failures}, fh, indent=1)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
