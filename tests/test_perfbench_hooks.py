"""The benchmark tracer finds every attribute it patches and puts each back.

``perfbench/tracing.py`` looks names up on the package modules, so a refactor
that drops one of them breaks only ``perfbench/run.py --trace 1``.
"""

import importlib
from pathlib import Path

import mpmath

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
