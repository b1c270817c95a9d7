"""Record the reference outputs the benchmark checks against.

    python3 perfbench/reference.py [escape-scan|device-sweep|gate ...]

Writes ``perfbench/data/<workload>.json`` from the program in ``src/``.
The committed files were recorded from the unmodified package; rerun only
when a change to the program moves an output on purpose, and say by how
much in the change's notes.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import workloads as w

POOL_SEED = 20261017
POOL_SIZES = {200: 384, 2000: 128}


def _write(name: str, payload: dict) -> None:
    payload = {"src_sha256": w.src_digest(), **payload}
    w.DATA.mkdir(exist_ok=True)
    with open(w.DATA / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


def escape_scan() -> None:
    w.OUT.mkdir(exist_ok=True)
    out = w.OUT / "reference.csv"
    grids = {}
    for d in w.ESCAPE_D_NM:
        code, wall, text = w.run_cli(w.escape_argv(d, out), out)
        rows = [ln.split(",") for ln in text.splitlines()
                if not ln.startswith("#")][1:]
        gc = sorted({float(r[0]) for r in rows})
        gv = sorted({float(r[1]) for r in rows})
        if code != 0 or len(rows) != len(gc) * len(gv):
            sys.exit(f"gamma-grid d={d} exited {code} or lost cells")
        grids[str(d)] = [float(r[2]) for r in rows]
        print(f"d={d}: {len(rows)} cells in {wall:.1f} s", file=sys.stderr)
    _write("escape_scan", {"gamma_c": gc, "gamma_v": gv, "delta_j": grids})


def _pool() -> list:
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for n, size in POOL_SIZES.items():
        for _ in range(size):
            pool.append({
                "d": float(rng.uniform(2.0, 10.0)),
                "gamma_c": float(10 ** rng.uniform(0.0, math.log10(500.0))),
                "gamma_v": float(10 ** rng.uniform(-4.0, math.log10(20.0))),
                "alignment": str(rng.choice(["0", "A1", "A2", "B1", "B2"])),
                "kind": str(rng.choice(["qdm", "sqd"])),
                "n": n})
    return pool


def _jsc_tol(curve) -> float:
    """How far jsc may move with the load grid.

    Where V crosses zero, the interpolated and the exact short-circuit
    current both lie within the current step of the bracketing interval.
    Where it does not (the current saturates as 1 - c/Gamma before V
    reaches zero), the tail value falls short of the limit by the rest of
    the geometric series of steps, step / (exp(du) - 1) for a log spacing
    du; twice that is allowed.
    """
    volts, currents = curve.column("V"), curve.column("j")
    below = np.flatnonzero(volts <= 0.0)
    if len(below):
        k = max(int(below[0]), 1)
        return float(abs(currents[k] - currents[k - 1]))
    gammas = curve.column("Gamma")
    du = math.log(gammas[-1] / gammas[-2])
    return 2.0 * float(abs(currents[-1] - currents[-2])) / math.expm1(du)


def device_sweep() -> None:
    q = w.import_program()
    pool = _pool()
    for entry in pool:
        got = w.request.characterise(q, entry)
        params = q.ModelParams(gamma_c=entry["gamma_c"],
                               gamma_v=entry["gamma_v"]
                               ).with_distance(entry["d"])
        curve = q.iv_curve(params, kind=entry["kind"],
                           grid=q.GridSpec(n=entry["n"]),
                           alignment=entry["alignment"])
        entry.update({k: got[k] for k in ("P_m", "V_mpp", "j_mpp", "eta",
                                          "Voc", "jsc")})
        entry["jsc_tol"] = _jsc_tol(curve)
        bad = w.check_request(entry, got)
        if bad:
            sys.exit(f"reference request {entry} fails its own checks: {bad}")
    _write("device_sweep", {"pool_seed": POOL_SEED, "requests": pool})


def gate() -> None:
    w.OUT.mkdir(exist_ok=True)
    out = w.OUT / "reference.txt"
    code, _, text = w.run_cli(w.gate_argv(20260823, out), out)
    verdicts = {}
    for ln in text.splitlines():
        if m := w._CRITERION.match(ln):
            verdicts[m.group(1)] = m.group(2)
    print(f"verify exit {code}: {verdicts}", file=sys.stderr)
    _write("gate", {"verdicts": verdicts})


if __name__ == "__main__":
    jobs = {"escape-scan": escape_scan, "device-sweep": device_sweep,
            "gate": gate}
    for name in sys.argv[1:] or list(jobs):
        jobs[name]()
