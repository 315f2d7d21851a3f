"""Turns a run's samples and spans into the reported metrics, and records
the environment the run measured on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource

import numpy as np
import scipy

from stages import LAB_INPUTS, LAB_PASSES
from tracer import END, START, SpanIndex

TRAIN = ("train.",)
ORTHO = ("train.orthoreg",)
LAB = ("lab.",)
SETUP = ("setup",)
INFER = ("infer",)
LAB_KINDS = tuple(stage for _, stage, _ in LAB_PASSES)


def _median(values) -> float:
    return float(np.median(values))


def end_to_end(samples: dict) -> dict:
    """End-to-end metrics. Repeated work (epochs, inference rows, commands,
    lab passes) is reported as the run's total time over its total work:
    this host's speed changes in phases of tens of seconds, and a pooled
    figure weighs each phase by how long it lasted, where a median jumps to
    whichever phase held most samples. Set-up and the accuracies are
    medians, and the cold-start latency is given by its percentiles."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {name: (_median(samples[name]), unit) for name, unit in (
        ("setup_s", "s"),
        ("mlp_val_acc", "fraction"),
        ("orthoreg_val_acc", "fraction"),
    ) if name in samples}
    # every call of an arm trains the same number of epochs
    for name in ("mlp_epoch_s", "orthoreg_epoch_s", "cli_train_s"):
        if name in samples:
            out[name] = (float(np.mean(samples[name])), "s")
    if "infer_rows_per_s" in samples:
        # every forward is of the same rows: rows over the mean time
        rates = np.asarray(samples["infer_rows_per_s"])
        out["infer_rows_per_s"] = (float(1.0 / np.mean(1.0 / rates)), "rows/s")
    cold = samples.get("coldstart_batch_s")
    if cold:
        out["coldstart_batch_s.p50"] = (_median(cold), "s")
        out["coldstart_batch_s.p90"] = (float(np.percentile(cold, 90)), "s")
    for name, _, _ in LAB_PASSES:
        if name in samples:
            out[name] = (lab_figure(samples[name]), "s")
    out["peak_rss_mb"] = (rss_mb, "MB")
    return out


def lab_figure(values) -> float:
    """A lab pass's time: the mean over the input draws of each draw's mean
    time. Draws differ in how fast Jacobi converges, and a run ends after
    an uneven number of passes, so a figure pooled over all passes would
    depend on which draws ran most often."""
    return float(np.mean([np.mean(values[k::LAB_INPUTS])
                          for k in range(min(LAB_INPUTS, len(values)))]))


def percentile_summary(values) -> dict:
    """Median plus the highest of p90/p99 with at least ten samples beyond
    it, and the sample count."""
    out = {"n": len(values), "p50": _median(values)}
    for q in (99, 90):
        if len(values) * (100 - q) / 100.0 >= 10:
            out[f"p{q}"] = float(np.percentile(values, q))
            break
    return out


def per_layer(spans: list, ctx, reference_s: float) -> tuple:
    """Per-layer metrics from the traced run's spans, plus the full
    percentile summaries of every timed layer for the result file."""
    si = SpanIndex(spans)
    w = ctx.workload
    out, detail = {}, {}

    def timed(metric: str, span: str, stages, self_time: bool = False):
        idx = si.select(span, stages)
        if idx:
            values = [(si.self_time if self_time else si.duration)[i] for i in idx]
            out[metric] = (_median(values), "s")
            detail[metric] = percentile_summary(values)
        return len(idx)

    def per_unit(metric: str, count: int, units: int, unit: str):
        if units:
            out[metric] = (count / units, unit)

    ortho_epochs = len(si.select("net.forward.train", ORTHO))

    timed("graphio.load_dataset.s", "graphio.load_dataset", SETUP)
    timed("graphio.normalize.s", "graphio.normalize", SETUP)

    timed("net.forward.train.s", "net.forward.train", TRAIN)
    timed("net.forward.eval.s", "net.forward.eval", TRAIN + INFER)
    timed("net.forward.coldstart.s", "net.forward.coldstart", INFER)
    cold = [si.duration[i] for i in si.select("net.forward.coldstart", INFER)]
    if len(cold) >= 1000:
        out["net.forward.coldstart.p99"] = (float(np.percentile(cold, 99)), "s")
    for name in ("backward", "cross_entropy", "adam_step"):
        timed(f"net.{name}.s", f"net.{name}", TRAIN)
    timed("net.as_matrix.s", "net.as_matrix", TRAIN)
    per_unit("net.as_matrix.calls", len(si.select("net.as_matrix", ORTHO)), ortho_epochs,
             "count/epoch")

    timed("reg.regularizer_value_grad.s", "reg.regularizer_value_grad", ORTHO)
    timed("reg.orthoreg_loss.self_s", "reg.orthoreg_loss", ORTHO, self_time=True)
    for name in ("neighborhood_summary", "cross_correlation"):
        timed(f"reg.{name}.s", f"reg.{name}", ORTHO)
    for name in ("spmm", "spmm_t", "as_matrix"):
        calls = timed(f"reg.{name}.s", f"reg.{name}", ORTHO)
        per_unit(f"reg.{name}.calls", calls, ortho_epochs, "count/epoch")

    timed("tensor.eigen_report.s", "tensor.eigen_report", ORTHO)
    timed("tensor.correlation.s", "tensor.correlation", ORTHO)
    for name in ("sym_eigvals", "sym_eig", "singular_values"):
        timed(f"tensor.{name}.s", f"tensor.{name}", LAB)
        # calls in one pass of each of the four lab kinds
        per_set = 0.0
        for kind in LAB_KINDS:
            passes = len(si.select(kind))
            if passes:
                per_set += len(si.select(f"tensor.{name}", (kind,))) / passes
        out[f"tensor.{name}.calls"] = (per_set, "count/labset")

    for name in ("closed_form_trajectory", "gd_linear_trajectory",
                 "feature_space_trajectory", "free_embedding_optimize",
                 "verify_ratio_monotonicity", "verify_spectrum_identity", "build_p"):
        timed(f"collapse.{name}.s", f"collapse.{name}", LAB)
    timed("collapse.whiten.s", "collapse.whiten", SETUP)

    traced_total = 0.0
    for arm in ("mlp", "orthoreg"):
        calls = si.select("experiments.train", (f"train.{arm}",))
        epoch_times, self_times = [], []
        for i in calls:
            starts = [si.spans[j][START] for j in si.select("net.forward.train")
                      if si.spans[j][START] >= si.spans[i][START]
                      and si.spans[j][END] <= si.spans[i][END]]
            bounds = starts + [si.spans[i][END]]
            epoch_times += [b - a for a, b in zip(bounds[:-1], bounds[1:])]
            self_times.append(si.self_time[i] / max(1, len(starts)))
        if epoch_times:
            out[f"experiments.train.{arm}.epoch_s.p50"] = (_median(epoch_times), "s")
            out[f"experiments.train.{arm}.self_s"] = (_median(self_times), "s/epoch")
            detail[f"experiments.train.{arm}.epoch_s"] = percentile_summary(epoch_times)
            traced_total += _median(ctx.samples[f"{arm}_epoch_s"])

    per_unit("cli.train.trainings", len(si.select("experiments.train", ("cli",))),
             ctx.cli_runs, "count/command")

    n, f = w.target.n_nodes, w.target.n_features
    hidden, emb = 256, 512
    out["net.layer0_gemm.flops"] = (3 * 2.0 * n * f * hidden, "flop/epoch")
    out["net.layer0_gemm.bytes"] = (3 * 8.0 * (n * f + f * hidden + n * hidden), "B/epoch")
    out["reg.corr_gemm.flops"] = (3 * 2.0 * n * emb * emb, "flop/call")
    out["reg.spmm.madds"] = (float(ctx.ops["rw"].matrix.nnz * emb), "madd/call")
    if reference_s > 0 and traced_total > 0:
        out["trace.overhead_ratio"] = (traced_total / reference_s, "ratio")
    return out, detail


def _blas_threads():
    """Thread count OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "nproc": nproc,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "orthoreg_threads": os.environ.get("ORTHOREG_THREADS", "unset"),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
    }


def format_rows(metrics: dict) -> list:
    return [f"{name:44s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]

