"""In-memory span tracing for the traced benchmark run.

A span is ``[name, start, end, parent]``; spans stay in a list until the
run ends. Layer functions are traced by replacing the module attribute
their caller looks them up under (the package imports with ``from .x
import y``, so ``orthoreg.experiments.forward`` is patched, not
``orthoreg.net.forward``). The benchmark's own code opens spans around the
calls it makes itself. ``restore`` puts every original back.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, label=None) -> None:
        """Trace calls made through ``module.attr``; ``label(args, kwargs)``
        may pick the span name per call."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self._open(name if label is None else label(args, kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function where its caller looks it up."""
    from orthoreg import cli, collapse, experiments, graphio, net, reg, tensor

    def forward_label(args, kwargs):
        return "net.forward.train" if kwargs.get("train_mode") else "net.forward.eval"

    def reg_label(args, kwargs):
        kind = args[1].kind
        return "reg.regularizer_value_grad" + ("" if kind == "orthoreg" else "." + kind)

    for module in (graphio, cli):
        tracer.wrap(module, "load_dataset", "graphio.load_dataset")
    for module in (graphio, experiments, collapse):
        tracer.wrap(module, "normalize", "graphio.normalize")
    tracer.wrap(experiments, "forward", "net.forward", forward_label)
    for attr in ("backward", "cross_entropy", "adam_step"):
        tracer.wrap(experiments, attr, f"net.{attr}")
    tracer.wrap(net, "as_matrix", "net.as_matrix")
    tracer.wrap(experiments, "regularizer_value_grad", "", reg_label)
    for attr in ("orthoreg_loss", "neighborhood_summary", "cross_correlation",
                 "spmm", "spmm_t", "as_matrix"):
        tracer.wrap(reg, attr, f"reg.{attr}")
    tracer.wrap(experiments, "eigen_report", "tensor.eigen_report")
    tracer.wrap(tensor, "correlation", "tensor.correlation")
    tracer.wrap(tensor, "sym_eigvals", "tensor.sym_eigvals")
    for attr in ("sym_eigvals", "sym_eig", "singular_values"):
        tracer.wrap(collapse, attr, f"tensor.{attr}")
    for attr in ("closed_form_trajectory", "gd_linear_trajectory",
                 "feature_space_trajectory", "free_embedding_optimize",
                 "verify_ratio_monotonicity", "verify_spectrum_identity",
                 "whiten", "build_p"):
        tracer.wrap(collapse, attr, f"collapse.{attr}")
    tracer.wrap(experiments, "train", "experiments.train")


class SpanIndex:
    """Per-span root ancestor (the benchmark stage), duration and self time."""

    def __init__(self, spans: list):
        n = len(spans)
        self.spans = spans
        self.duration = [s[END] - s[START] for s in spans]
        child_time = [0.0] * n
        self.root = [0] * n
        for i, s in enumerate(spans):
            p = s[PARENT]
            self.root[i] = i if p < 0 else self.root[p]
            if p >= 0:
                child_time[p] += self.duration[i]
        # calls are serial, so direct children never overlap and their sum
        # is the part of the parent's interval they cover
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def stage(self, i: int) -> str:
        return self.spans[self.root[i]][NAME]

    def select(self, name: str, stages=None) -> list:
        """Indices of spans called ``name`` under one of ``stages``."""
        out = []
        for i, s in enumerate(self.spans):
            if s[NAME] != name:
                continue
            if stages is None or any(self.stage(i).startswith(st) for st in stages):
                out.append(i)
        return out
