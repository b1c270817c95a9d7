"""The benchmark's hold on the public API, read from perfbench/ as it
stands: the functions its tracer wraps by name, and the single-device
request it times.  A name the benchmark still reads cannot be deleted
before the benchmark drops it."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import qdmcell

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_BENCH_MODULES = ("layers", "request", "tracer", "workloads")


@pytest.fixture
def bench(monkeypatch):
    """perfbench's modules, imported as its runner imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in _BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield {name: importlib.import_module(name) for name in _BENCH_MODULES}
    for name in _BENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_traced_function_resolves(bench):
    missing = [f"{layer}.{func}"
               for layer, funcs in bench["layers"].TRACED.items()
               for func in funcs
               if not callable(getattr(
                   importlib.import_module(f"qdmcell.{layer}"), func, None))]
    assert missing == []


def test_device_sweep_request_returns_every_key(bench):
    data = json.loads((PERFBENCH / "data" / "device_sweep.json").read_text())
    entry = data["requests"][0]
    got = bench["request"].characterise(qdmcell, entry)
    # The keys ``workloads.check_request`` reads.
    assert set(got) == {"P_m", "V_mpp", "j_mpp", "eta", "Voc", "jsc", "kTc",
                        "kTs"}
    assert bench["workloads"].check_request(entry, got) == []
