"""The benchmark tracer finds every attribute it patches and puts each back,
and the in-process workloads still call the package as it is.

``perfbench/tracing.py`` looks names up on the package modules, so a refactor
that drops one of them breaks only ``perfbench/run.py --trace 1``; and a
changed call shape in ``perfbench/workloads.py`` shows up only as a failed
operation in a benchmark run.
"""

import importlib
from pathlib import Path

import mpmath
import pytest

from randmap import (
    _kernels,
    dde,
    distributions,
    exact_enum,
    gfseries,
    laplace,
    mapping_sim,
    moments,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (
    _kernels,
    dde,
    dde.PiecewiseSolution,
    distributions,
    exact_enum,
    gfseries,
    laplace,
    mapping_sim,
    moments,
    mpmath,
)


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_install_then_uninstall_restores_every_attribute(monkeypatch):
    tracing = _tracing(monkeypatch)
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = [(owner, attr) for owner, attr, _ in tracer._patched]
        assert patched
        for owner, attr in patched:
            assert owner in before, owner
            assert getattr(owner, attr) is not before[owner][attr], attr
    finally:
        tracer.uninstall()
    for owner, attrs in before.items():
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_named_caches_exist(monkeypatch):
    tracing = _tracing(monkeypatch)
    assert set(tracing.NAMED_CACHES) <= set(tracing.find_caches())


@pytest.mark.parametrize("name", ["montecarlo", "exact", "analytic"])
def test_workload_round_has_no_failures(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    # the montecarlo workload wraps batch_stats until finish(); put it back
    # even if the round raises
    monkeypatch.setattr(_kernels, "batch_stats", _kernels.batch_stats)
    work = workloads.WORKLOADS[name](20240817, str(PERFBENCH.parent))
    work.warm_up()
    work.round(0)
    work.finish()
    assert work.attempted > 0
    assert work.failures == []


def test_traced_enumeration_is_one_tally_span(monkeypatch):
    # the tally grows the whole tree in one call, which the tracer reads as
    # n^n mappings
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        exact_enum.enumerate_all(6)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[0] == "kernels.enumerate_tally"]
    assert [s[4] for s in spans] == [{"mappings": 6**6}]
