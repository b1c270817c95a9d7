"""Which program functions are traced, and the per-layer metrics.

Only layer entry points are wrapped.  Leaf helpers (``current``,
``voltage``, ``bose_occupation``, ...) are left alone so the trace stays
affordable; their time shows as self time of the traced caller.
"""

from __future__ import annotations

import sys

import numpy as np

# Layer (qdmcell module) -> traced functions; spans are "<layer>.<function>".
TRACED = {
    "model": ("build_generator",),
    "steady": ("solve_steady", "evolve"),
    "observables": ("photovoltaic_point",),
    "sweeps": ("iv_curve", "max_power_point", "open_circuit_voltage",
               "short_circuit_current", "relative_current_gain",
               "gamma_grid_scan", "efficiency_vs_distance",
               "phonon_assisted_comparison"),
    "acceptance": ("calibrate", "run_all") + tuple(
        f"criterion_{k}" for k in range(1, 9)),
    "analytics": ("tls_steady",),
    "cli": ("main",),
}
LINALG = ("solve", "svd", "cond", "matrix_power")

# Span values: what a call produced, beyond its time.
_MEASURES = {
    # Number of linear systems in one (possibly stacked) solve.
    "linalg.solve": lambda args, kw, r: int(np.prod(np.shape(args[0])[:-2])),
    # Share of the load grid that survived as curve points.
    "sweeps.iv_curve": lambda args, kw, r: 1.0 - r.n_dropped / r.grid.n,
    "sweeps.gamma_grid_scan": lambda args, kw, r: len(r.failures),
}


def install(tracer) -> None:
    """Wrap every traced function in each qdmcell module that holds it."""
    program = [m.__dict__ for name, m in sorted(sys.modules.items())
               if name == "qdmcell" or name.startswith("qdmcell.")]
    for layer, funcs in TRACED.items():
        home = sys.modules[f"qdmcell.{layer}"].__dict__
        for func in funcs:
            name = f"{layer}.{func}"
            tracer.wrap([home] + program, func, name, _MEASURES.get(name))
    linalg = sys.modules["numpy.linalg"].__dict__
    for func in LINALG:
        name = f"linalg.{func}"
        tracer.wrap([linalg] + program, func, name, _MEASURES.get(name))


_CALLS_AND_SELF = ("model.build_generator", "steady.solve_steady",
                   "steady.evolve", "observables.photovoltaic_point",
                   "sweeps.iv_curve", "sweeps.max_power_point",
                   "sweeps.open_circuit_voltage",
                   "sweeps.short_circuit_current", "sweeps.gamma_grid_scan",
                   "analytics.tls_steady")


def metrics(spans, overhead_s: float, output_bytes: int) -> dict:
    """Per-layer metrics by name; units are declared in BENCHMARK.json."""
    m = {}
    for name in _CALLS_AND_SELF:
        m[f"{name}.calls"] = spans.calls(name)
        m[f"{name}.self_s"] = spans.self_s(name)

    scans = spans.ids("sweeps.gamma_grid_scan")
    scan_wall = float(spans.duration[scans].sum())
    cell_time = sum(float(spans.duration[spans.children(s)].sum())
                    for s in scans)
    m["sweeps.scan.busy_ratio"] = cell_time / scan_wall if scans.size else 0.0
    m["sweeps.scan.cells_failed"] = int(
        spans.values("sweeps.gamma_grid_scan").sum())
    kept = spans.values("sweeps.iv_curve")
    m["sweeps.iv_curve.points_kept_ratio"] = (
        float(kept.mean()) if kept.size else 0.0)

    m["acceptance.calibrate.s"] = spans.total_s("acceptance.calibrate")
    for k in range(1, 9):
        m[f"acceptance.criterion_{k}.s"] = spans.total_s(
            f"acceptance.criterion_{k}")

    m["cli.main.self_s"] = spans.self_s("cli.main")
    m["cli.output_bytes"] = output_bytes

    solves = spans.calls("linalg.solve")
    systems = int(spans.values("linalg.solve").sum())
    m["linalg.solve.calls"] = solves
    m["linalg.solve.systems"] = systems
    m["linalg.systems_per_call"] = systems / solves if solves else 0.0
    for func in ("svd", "cond", "matrix_power"):
        m[f"linalg.{func}.calls"] = spans.calls(f"linalg.{func}")
    m["linalg.self_s"] = sum(spans.self_s(f"linalg.{f}") for f in LINALG)

    m["trace.spans"] = len(spans)
    m["trace.overhead_s"] = overhead_s
    return m
