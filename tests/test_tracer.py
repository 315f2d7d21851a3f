"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
the module attribute their callers look them up under. A function that is
renamed or moved makes ``install`` fail here, not only in a traced
benchmark run."""

import os

import numpy as np

from orthoreg import cli, collapse, experiments, graphio, net, reg, tensor

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
TRACED_MODULES = (cli, collapse, experiments, graphio, net, reg, tensor)


def test_install_traces_the_package_and_restore_puts_every_original_back(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    before = [dict(vars(module)) for module in TRACED_MODULES]
    t = tracer.Tracer()
    tracer.install(t)
    try:
        wrapped = [(module.__name__, key) for module, old in zip(TRACED_MODULES, before)
                   for key, value in vars(module).items() if old.get(key) is not value]
        assert ("orthoreg.reg", "cross_correlation") in wrapped
        assert ("orthoreg.tensor", "correlation") in wrapped
        # the spectrum report reaches the correlation through tensor's namespace
        experiments.eigen_report(np.random.default_rng(0).standard_normal((6, 3)))
        names = [span[tracer.NAME] for span in t.spans]
        assert names == ["tensor.eigen_report", "tensor.correlation", "tensor.sym_eigvals"]
    finally:
        t.restore()
    for module, old in zip(TRACED_MODULES, before):
        now = vars(module)
        assert set(now) == set(old), module.__name__
        assert all(now[key] is value for key, value in old.items()), module.__name__
