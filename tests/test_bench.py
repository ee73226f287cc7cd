"""The benchmark's contract with the package: the bench modules import and
wrap qdscodes names when they load, so a rename or a move that breaks every
bench run fails here first."""

import importlib
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("tracing", "probes", "workloads")


@pytest.fixture
def bench(monkeypatch):
    """The bench modules, imported from bench/ as a bench worker imports
    them, writing no bytecode there, and dropped from sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield {name: importlib.import_module(name) for name in MODULES}
    for name in MODULES:
        sys.modules.pop(name, None)


def test_every_traced_name_resolves_to_a_callable(bench):
    wrapped = bench["tracing"].WRAPPED
    assert wrapped
    for module, name, *_ in wrapped:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_each_workload_builds_and_passes_its_warmup(bench, tmp_path):
    workloads = bench["workloads"]
    assert set(workloads.BUILDERS) == {"curves", "montecarlo", "verify"}
    for name in workloads.BUILDERS:
        workload = workloads.build(name, random.Random(f"{name}:7:0"), tmp_path / name)
        assert workload.ops, name
        warmup = workload.warmup
        assert warmup.check(warmup.run()) is None, (name, warmup.name)
