"""The benchmark workloads: seeded inputs, measured runs, output checks.

Every workload returns a ``Run``: the operations attempted and failed,
the end-to-end figures, and (when traced) the recorded spans.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import request
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
OUT = ROOT / ".bench_out"

# The max-power search brackets ln(Gamma) to this width (sweeps._golden_max),
# so the point it returns lies within it of the true maximum.  Along the
# curve |d ln j / d ln Gamma| <= 1 (j = Gamma * rho55 with rho55 falling),
# and at the maximum d ln V = -d ln j, while P is flat to first order.  Two
# implementations, each within the bracket, therefore agree on j_mpp,
# V_mpp and P_m to 2 * GOLDEN_TOL relative.
GOLDEN_TOL = 1e-6
MPP_RTOL = 2.0 * GOLDEN_TOL
VOC_ATOL_MV = 0.1
CLI_TIMEOUT_S = 170.0
SETUP_REPEATS = 7
TRACED_REQUESTS = 200

# QDM_THREADS for each workload's program runs; absent means unset, the
# program's default.  The gate pins one worker: with two workers on two
# vCPUs, verify's wall time swung 1.5-2x with the load on the host (24-49 s
# over ten runs, against 21-31 s with one worker), more than any bound can
# hold.  The pool's cost is measured by escape-scan instead.
QDM_THREADS = {"gate": "1"}

# One verify run takes about 20-25 s, a few of the machine's speed swings,
# and ten runs timing one verify each spread 20-25 % between quartiles;
# the gate therefore times at least two and reports their median.
GATE_MIN_RUNS = 2

ESCAPE_D_NM = (2, 3, 4, 5, 6, 7, 8, 9, 10)
ESCAPE_HEADER = "gamma_c_over_gamma,gamma_v_over_gamma,delta_j"
N_CRITERIA = 8
_CRITERION = re.compile(r"criterion (\d+) \[(PASS|FAIL)\] ")
_SUMMARY = re.compile(r"(\d+)/(\d+) criteria passed")


def delta_j_tol(ref: float) -> float:
    """Allowed |delta_j - ref|: delta_j + 1 = j_qdm / j_sqd, and each
    current may move by MPP_RTOL relative."""
    return 2.0 * MPP_RTOL * (1.0 + abs(ref))


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    ok: int = 0
    ops_per_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


# -- program access ----------------------------------------------------------

def child_env(threads: str | None = None) -> dict:
    """Environment for program subprocesses: the checkout's sources, and
    QDM_THREADS set to ``threads`` or else unset."""
    env = dict(os.environ)
    env.pop("QDM_THREADS", None)
    if threads is not None:
        env["QDM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_program():
    """Import qdmcell from the checkout's ``src`` and nowhere else."""
    os.environ.pop("QDM_THREADS", None)
    sys.path.insert(0, str(SRC))
    q = importlib.import_module("qdmcell")
    importlib.import_module("qdmcell.cli")
    if not Path(q.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qdmcell imported from {q.__file__}, not {SRC}")
    return q


def src_digest() -> str:
    """Digest of the program's sources, to tie results to a version."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qdmcell").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _read(out: Path) -> str:
    return out.read_text(encoding="utf-8") if out.exists() else ""


def run_cli(argv: list, out: Path,
            threads: str | None = None) -> tuple[int, float, str]:
    """Run ``qdmcell`` as a subprocess whose arguments write to ``out``;
    (exit code, wall s, output text)."""
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qdmcell.cli", *argv],
                          env=child_env(threads), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CLI_TIMEOUT_S, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 3):
        print(proc.stderr[-2000:], file=sys.stderr)
    return proc.returncode, wall, _read(out)


def _main_in_process(cli, argv: list, out: Path) -> tuple[int, float, str]:
    """``run_cli`` through ``cli.main`` in this process."""
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed run, reported with its trace
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - t0, _read(out)


def children_peak_rss_mb() -> float:
    """Largest resident set of any child waited for so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(code: str) -> float:
    """Median wall time of fresh interpreters running ``code``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(),
                       stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


IMPORT_ONLY = "import qdmcell"


def load_reference(name: str) -> dict:
    with open(DATA / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def timed_cli(run: Run, argv: list, out: Path, seconds: float, check,
              threads: str | None = None, min_runs: int = 1) -> None:
    """Repeat a CLI command until ``seconds`` have passed and it has run
    ``min_runs`` times, passing each (exit code, output) to ``check``;
    then record the run times, the children's peak RSS and the set-up
    time."""
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_runs or time.perf_counter() < deadline:
        code, wall, text = run_cli(argv, out, threads)
        walls.append(wall)
        check(code, text)
    run.latencies_s = walls
    run.peak_rss_mb = children_peak_rss_mb()  # before the set-up probes
    run.setup_s = setup_seconds(IMPORT_ONLY)


def traced_cli(argv_for, layer_out: Path,
               threads: str | None = None) -> tuple:
    """Run the CLI in process twice, untraced then traced.

    ``argv_for(path)`` gives the arguments writing output to ``path``;
    QDM_THREADS is ``threads`` during both runs.  Returns (untraced exit,
    traced exit, untraced output, traced output, spans, tracing overhead
    in s).
    """
    cli = import_program().cli
    plain, traced = OUT / "untraced.out", OUT / "traced.out"
    if threads is not None:
        os.environ["QDM_THREADS"] = threads
    try:
        code, wall, text = _main_in_process(cli, argv_for(plain), plain)
        tracer = Tracer()
        layers.install(tracer)
        try:
            code_t, wall_t, text_t = _main_in_process(cli, argv_for(traced),
                                                      traced)
        finally:
            spans = tracer.finish(layer_out)
    finally:
        os.environ.pop("QDM_THREADS", None)
    return code, code_t, text, text_t, spans, wall_t - wall


# -- escape-scan: one 40x40 gamma-grid run -------------------------------------

def escape_distance(seed: int) -> int:
    rng = np.random.default_rng(seed)
    return ESCAPE_D_NM[int(rng.integers(len(ESCAPE_D_NM)))]


def escape_argv(d: int, out: Path) -> list:
    return ["gamma-grid", "--set", f"d={d}", "-o", str(out)]


def _axis_key(x: float) -> str:
    return format(x, ".9g")


def check_escape(run: Run, code: int, text: str, d: int, ref: dict) -> None:
    """Compare a gamma-grid CSV cell by cell with the recorded delta_j."""
    cells = len(ref["gamma_c"]) * len(ref["gamma_v"])
    run.attempted += cells
    if code != 0:
        run.fail(cells, f"gamma-grid exit code {code}")
        return
    lines = text.splitlines()
    meta = dict(ln[2:].split(" = ", 1) for ln in lines
                if ln.startswith("# ") and " = " in ln)
    body = [ln for ln in lines if not ln.startswith("#")]
    if meta.get("d") != format(float(d), ".12g") or not body \
            or body[0] != ESCAPE_HEADER:
        run.fail(cells, "gamma-grid output: wrong metadata or header")
        return
    gc_index = {_axis_key(x): i for i, x in enumerate(ref["gamma_c"])}
    gv_index = {_axis_key(x): i for i, x in enumerate(ref["gamma_v"])}
    expected = ref["delta_j"][str(d)]
    seen = set()
    for ln in body[1:]:
        try:
            gc, gv, dj = (float(v) for v in ln.split(","))
            cell = gv_index[_axis_key(gv)] * len(gc_index) \
                + gc_index[_axis_key(gc)]
        except (ValueError, KeyError):
            run.problems.append(f"unparseable row {ln!r}")
            continue
        want = expected[cell]
        if cell in seen or not abs(dj - want) <= delta_j_tol(want):
            run.problems.append(f"cell {cell}: delta_j {dj!r}, want {want!r}")
            continue
        seen.add(cell)
    run.ok += len(seen)
    if len(seen) < cells:
        run.fail(cells - len(seen),
                 f"{cells - len(seen)} cells missing or off reference")


def escape_scan(seed: int, seconds: float, trace: bool) -> Run:
    d = escape_distance(seed)
    ref = load_reference("escape_scan")
    run = Run()
    if trace:
        code, code_t, out, out_t, spans, overhead = traced_cli(
            lambda path: escape_argv(d, path), OUT / "escape-scan.spans.npz")
        check_escape(run, code_t, out_t, d, ref)
        if out != out_t:
            differ = sum(a != b for a, b in zip(out.splitlines(),
                                                out_t.splitlines()))
            run.fail(max(differ, 1), "two gamma-grid runs differ in bytes")
        run.layer = layers.metrics(spans, overhead, len(out_t.encode()))
        return run
    out = OUT / "escape-scan.csv"
    timed_cli(run, escape_argv(d, out), out, seconds,
              lambda code, text: check_escape(run, code, text, d, ref))
    cells = len(ref["gamma_c"]) * len(ref["gamma_v"])
    run.ops_per_s = cells / statistics.median(run.latencies_s)
    return run


# -- device-sweep: a closed-loop stream of single-device requests ----------------

# Request kinds and load-grid sizes repeat in this cycle of ten: 3 sqd and
# 4 qdm at 200 loads, 1 sqd and 2 qdm at 2000.  Latency rises in that
# order, so the median sits mid-way through the qdm/200 requests and the
# 90th percentile mid-way through the qdm/2000 ones, never on the edge
# between two request types, where the mix of one run would move it.
DEVICE_CYCLE = (("qdm", 200), ("sqd", 200), ("qdm", 2000), ("qdm", 200),
                ("sqd", 200), ("sqd", 2000), ("qdm", 200), ("sqd", 200),
                ("qdm", 2000), ("qdm", 200))


def device_stream(seed: int, pool: list):
    """Endless seeded request stream: the cycle fixes each request's kind
    and grid, the seed picks its parameters from the reference pool."""
    by_type = {t: [e for e in pool if (e["kind"], e["n"]) == t]
               for t in set(DEVICE_CYCLE)}
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        sub = by_type[DEVICE_CYCLE[i % len(DEVICE_CYCLE)]]
        yield sub[int(rng.integers(len(sub)))]
        i += 1


def cycle_throughput(starts: list) -> float:
    """Requests per second: the median over consecutive windows of one
    request cycle each, from the requests' start times (and the run's end
    as the last entry).  Any run of len(DEVICE_CYCLE) consecutive requests
    holds each kind and grid once, so every window carries the same mix;
    the median over windows keeps a stretch of slow machine from moving
    the figure as it moves a whole-run average."""
    k = len(DEVICE_CYCLE)
    windows = [starts[i + k] - starts[i]
               for i in range(0, len(starts) - k, k)]
    if not windows:  # shorter than one cycle
        return (len(starts) - 1) / (starts[-1] - starts[0])
    return k / statistics.median(windows)


def check_request(entry: dict, got: dict) -> list:
    """Reasons a request's outputs are wrong; empty when correct."""
    bad = []
    for key in ("P_m", "V_mpp", "j_mpp"):
        if not abs(got[key] - entry[key]) <= MPP_RTOL * abs(entry[key]):
            bad.append(f"{key} {got[key]!r} != {entry[key]!r}")
    if not abs(got["Voc"] - entry["Voc"]) <= VOC_ATOL_MV:
        bad.append(f"Voc {got['Voc']!r} != {entry['Voc']!r}")
    if not abs(got["jsc"] - entry["jsc"]) <= entry["jsc_tol"]:
        bad.append(f"jsc {got['jsc']!r} != {entry['jsc']!r}")
    if not got["Voc"] >= got["V_mpp"]:
        bad.append("V_oc < V_mpp")
    if not got["j_mpp"] <= got["jsc"]:
        bad.append("j_mpp > jsc")
    if not 0.0 <= got["eta"] < 1.0 - got["kTc"] / got["kTs"]:
        bad.append(f"eta {got['eta']!r} outside [0, Carnot)")
    return bad


def _request(q, entry: dict) -> tuple:
    try:
        return request.characterise(q, entry), None
    except Exception as exc:  # every failure is counted, none stops the run
        return None, f"{type(exc).__name__}: {exc}"


def _setup_code(entry: dict) -> str:
    inputs = {k: entry[k] for k in ("d", "gamma_c", "gamma_v", "alignment",
                                    "kind", "n")}
    return (f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
            "import qdmcell, request\n"
            f"request.characterise(qdmcell, {inputs!r})\n")


def device_sweep(seed: int, seconds: float, trace: bool) -> Run:
    """Untraced runs stream requests for ``seconds``; traced runs take a
    fixed count, so their call counts repeat exactly, and replay it."""
    q = import_program()
    pool = load_reference("device_sweep")["requests"]
    stream = device_stream(seed, pool)
    first = next(stream)
    done = [(first, *_request(q, first))]  # warm-up: checked, not timed
    latencies = []
    starts = []
    start = time.perf_counter()
    deadline = start + seconds
    while (len(latencies) < TRACED_REQUESTS if trace
           else time.perf_counter() < deadline):
        entry = next(stream)
        t0 = time.perf_counter()
        got, err = _request(q, entry)
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        done.append((entry, got, err))
    wall = time.perf_counter() - start
    starts.append(start + wall)
    run = Run(attempted=len(done), latencies_s=latencies,
              ops_per_s=cycle_throughput(starts),
              peak_rss_mb=self_peak_rss_mb())
    if trace:
        tracer = Tracer()
        layers.install(tracer)
        t0 = time.perf_counter()
        try:
            for entry, _, _ in done[1:]:
                with tracer.span("bench.request"):
                    _request(q, entry)
        finally:
            overhead = time.perf_counter() - t0 - wall
            spans = tracer.finish(OUT / "device-sweep.spans.npz")
        run.layer = layers.metrics(spans, overhead, 0)
    for entry, got, err in done:
        bad = [err] if err else check_request(entry, got)
        if bad:
            run.fail(1, f"request {entry}: {'; '.join(bad)}")
    run.ok = run.attempted - run.failed
    if not trace:
        run.setup_s = setup_seconds(_setup_code(first))
    return run


# -- gate: one `qdmcell verify` run ----------------------------------------------

def gate_argv(seed: int, out: Path) -> list:
    return ["verify", "--set", f"seed={seed % 2**32}", "-o", str(out)]


def check_gate(run: Run, code: int, text: str, ref: dict) -> None:
    """Parse the eight criterion lines and the N/8 summary; a criterion
    that passed in the reference and fails now counts as failed."""
    run.attempted += N_CRITERIA
    verdicts = {}
    summary = None
    for ln in text.splitlines():
        if m := _CRITERION.match(ln):
            verdicts[int(m.group(1))] = m.group(2)
        elif m := _SUMMARY.fullmatch(ln):
            summary = (int(m.group(1)), int(m.group(2)))
    passed = sum(v == "PASS" for v in verdicts.values())
    if sorted(verdicts) != list(range(1, N_CRITERIA + 1)) \
            or summary != (passed, N_CRITERIA) \
            or code != (0 if passed == N_CRITERIA else 3):
        run.fail(N_CRITERIA, f"verify output malformed (exit {code}, "
                                f"verdicts {verdicts}, summary {summary})")
        return
    run.ok += passed
    for k, want in ref["verdicts"].items():
        if want == "PASS" and verdicts[int(k)] != "PASS":
            run.fail(1, f"criterion {k} regressed to FAIL")


def gate(seed: int, seconds: float, trace: bool) -> Run:
    ref = load_reference("gate")
    run = Run()
    if trace:
        code, code_t, out, out_t, spans, overhead = traced_cli(
            lambda path: gate_argv(seed, path), OUT / "gate.spans.npz",
            QDM_THREADS["gate"])
        check_gate(run, code, out, ref)
        check_gate(run, code_t, out_t, ref)
        run.layer = layers.metrics(spans, overhead, len(out_t.encode()))
        return run
    out = OUT / "gate.txt"
    timed_cli(run, gate_argv(seed, out), out, seconds,
              lambda code, text: check_gate(run, code, text, ref),
              QDM_THREADS["gate"], GATE_MIN_RUNS)
    run.ops_per_s = N_CRITERIA / statistics.median(run.latencies_s)
    return run


WORKLOADS = {"escape-scan": escape_scan, "device-sweep": device_sweep,
             "gate": gate}
