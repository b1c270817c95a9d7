"""qdmcell benchmark.

    python3 perfbench/run.py --workload escape-scan|device-sweep|gate \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with
nothing wrapped; with ``--trace 1`` it wraps the program's layer entry
points and reports per-layer metrics instead.  The last line of standard
output is the result as one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

import workloads as w

# Metric names, units and bounds are declared once, in BENCHMARK.json.
SPEC = json.loads((w.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def git_revision():
    try:
        top = subprocess.run(["git", "-C", str(w.ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(w.ROOT):
        return None
    return lines[1]


def conditions(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_revision": git_revision(), "src_sha256": w.src_digest(),
        "QDM_THREADS": w.QDM_THREADS.get(args.workload,
                                         "unset (program default)"),
    }


# The 90th percentile is reported only with at least ten samples beyond
# it; with fewer samples (the CLI workloads) the median stands in for it.
TAIL_MIN_SAMPLES = 100


def end_to_end(run: w.Run) -> dict:
    lat_ms = [1e3 * t for t in run.latencies_s]
    p50 = statistics.median(lat_ms)
    return {
        "setup_s": run.setup_s,
        "ops_per_s": run.ops_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": (percentile(lat_ms, 0.9)
                           if len(lat_ms) >= TAIL_MIN_SAMPLES else p50),
        "peak_rss_mb": run.peak_rss_mb,
        "ok_share": run.ok / run.attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (w.SRC / "qdmcell" / "__init__.py").is_file():
        print(f"no program sources at {w.SRC / 'qdmcell'}", file=sys.stderr)
        return 2
    w.OUT.mkdir(exist_ok=True)
    cond = conditions(args)
    print(json.dumps({"conditions": cond}))

    run = w.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    for problem in run.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    if args.trace:
        values, declared = run.layer, SPEC["per_layer"]
    else:
        values, declared = end_to_end(run), SPEC["end_to_end"]
        print(f"samples: {len(run.latencies_s)} timed operations "
              f"({args.workload}), {run.attempted} checked")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
