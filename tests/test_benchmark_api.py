"""The benchmark's hold on the public API, read from perfbench/ as it
stands: the functions its tracer wraps by name, the single-device
request it times, and the calls its per-layer cross-check times.  A name
the benchmark still reads cannot be deleted before the benchmark drops
it."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdmcell

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_BENCH_MODULES = ("crosscheck", "layers", "request", "tracer", "workloads")


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


def test_package_import_loads_every_traced_layer(bench):
    # ``layers.install`` reads each layer from ``sys.modules`` after the
    # program is imported, so a layer imported lazily would crash every
    # traced run.  A fresh interpreter, since this one imported them all.
    layers = sorted(f"qdmcell.{layer}" for layer in bench["layers"].TRACED)
    script = ("import sys\nimport qdmcell, qdmcell.cli\n"
              f"print([m for m in {layers!r} if m not in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qdmcell.__file__)))
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr, child.stdout) == (0, "", "[]\n")


def test_device_sweep_request_returns_every_key(bench):
    # Every request of the pool, checked as the benchmark checks it.
    data = json.loads((PERFBENCH / "data" / "device_sweep.json").read_text())
    bad = []
    for entry in data["requests"]:
        got = bench["request"].characterise(qdmcell, entry)
        # The keys ``workloads.check_request`` reads.
        assert set(got) == {"P_m", "V_mpp", "j_mpp", "eta", "Voc", "jsc",
                            "kTc", "kTs"}
        bad += [(entry, reason)
                for reason in bench["workloads"].check_request(entry, got)]
    assert len(data["requests"]) == 512
    assert bad == []


def test_crosscheck_cases_run(bench):
    cases = bench["crosscheck"].cases(qdmcell)
    assert {name for name, _, _ in cases} == set(
        bench["crosscheck"].BASELINE_MS)
    for _, _, call in cases:
        call()
