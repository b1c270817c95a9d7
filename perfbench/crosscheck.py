"""Per-call times of four layers, traced and untraced.

    python3 perfbench/crosscheck.py

Calls each layer entry point repeatedly at the reference operating point
(``ModelParams()``), in alternating plain and traced blocks, and prints
the median inclusive time per call next to the single-run baseline of
ROADMAP.md.  The gap between the traced and plain columns is the tracing
cost per call, which grows with the number of spans a call opens.
"""

from __future__ import annotations

import statistics
import time

import layers
import workloads as w
from tracer import Tracer

# Milliseconds per call; one run each, 2-core machine, Python 3.11.7,
# numpy 2.4.6, so about +-10%.
BASELINE_MS = {"model.build_generator": 0.04, "steady.solve_steady": 0.17,
               "sweeps.iv_curve": 6.0, "sweeps.max_power_point": 5.4}


def cases(q):
    p = q.ModelParams()
    gen = q.build_generator(p, "qdm")
    return [
        ("model.build_generator", 100, lambda: q.build_generator(p, "qdm")),
        ("steady.solve_steady", 100, lambda: q.solve_steady(gen)),
        ("sweeps.iv_curve", 20,
         lambda: q.iv_curve(p, grid=q.GridSpec(n=200))),
        ("sweeps.max_power_point", 20,
         lambda: q.max_power_point(p, grid=q.GridSpec(n=72))),
    ]

ROUNDS = 5


def main() -> None:
    """Alternate plain and traced blocks of calls, so both see the same
    machine; report medians over all rounds."""
    q = w.import_program()
    plain, traced, spans_per_call = {}, {}, {}
    for _ in range(ROUNDS):
        for name, k, fn in cases(q):
            fn()  # warm caches before either pass
            for _ in range(k):
                t0 = time.perf_counter()
                fn()
                plain.setdefault(name, []).append(time.perf_counter() - t0)
            tracer = Tracer()
            layers.install(tracer)
            try:
                for _ in range(k):
                    fn()
            finally:
                spans = tracer.finish()
            top = spans.ids(name)[spans.parent[spans.ids(name)] < 0]
            traced.setdefault(name, []).extend(spans.duration[top])
            spans_per_call[name] = len(spans) / len(top)
    print(f"{'layer':<24}{'baseline':>10}{'plain':>10}{'traced':>10}"
          f"{'spans/call':>12}   (ms per call, medians)")
    for name in BASELINE_MS:
        print(f"{name:<24}{BASELINE_MS[name]:>10.3f}"
              f"{1e3 * statistics.median(plain[name]):>10.3f}"
              f"{1e3 * statistics.median(traced[name]):>10.3f}"
              f"{spans_per_call[name]:>12.1f}")


if __name__ == "__main__":
    main()
