"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic, its wrapping and unwrapping,
its thread attribution, the output checks against perturbed outputs, and
runs a short traced and untraced device-sweep.  Takes about half a minute.
"""

from __future__ import annotations

import sys
import threading
import time
import unittest

import numpy as np

import run as bench
import workloads as w
from tracer import Spans, Tracer


def _spans(rows):
    """Spans from (parent, start, end) rows."""
    parent, start, end = (np.array(c, dtype=t) for c, t in
                          zip(zip(*rows), (np.int64, float, float)))
    n = len(rows)
    return Spans(["x"], np.zeros(n, np.int64), parent, np.zeros(n, np.uint16),
                 start, end, np.zeros(n))


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        s = _spans([(-1, 0.0, 10.0), (0, 1.0, 3.0), (0, 4.0, 8.0),
                    (2, 5.0, 6.0)])
        np.testing.assert_allclose(s.self_time, [4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_are_subtracted_once(self):
        # Two worker threads under one scan span.
        s = _spans([(-1, 0.0, 10.0), (0, 1.0, 6.0), (0, 2.0, 5.0),
                    (0, 5.5, 9.0)])
        np.testing.assert_allclose(s.self_time[0], 2.0)


class Wrapping(unittest.TestCase):
    def test_wraps_every_namespace_and_restores(self):
        def f(x):
            return x + 1
        home, other, unrelated = {"f": f}, {"g": f}, {"f": len}
        tracer = Tracer()
        tracer.wrap([home, other, unrelated], "f", "t.f",
                    measure=lambda a, kw, r: r)
        self.assertIsNot(home["f"], f)
        self.assertIs(unrelated["f"], len)
        self.assertEqual(home["f"](1) + other["g"](2), 5)
        spans = tracer.finish()
        self.assertIs(home["f"], f)
        self.assertIs(other["g"], f)
        self.assertEqual(spans.calls("t.f"), 2)
        self.assertEqual(sorted(spans.values("t.f")), [2.0, 3.0])

    def test_exceptions_close_the_span(self):
        def boom():
            raise KeyError("x")
        ns = {"boom": boom}
        tracer = Tracer()
        tracer.wrap([ns], "boom", "t.boom")
        with self.assertRaises(KeyError):
            ns["boom"]()
        spans = tracer.finish()
        self.assertEqual(spans.calls("t.boom"), 1)
        self.assertGreaterEqual(spans.duration[0], 0.0)

    def test_worker_threads_attach_to_the_open_span(self):
        ns = {"leaf": lambda: time.sleep(0.001)}
        tracer = Tracer()
        tracer.wrap([ns], "leaf", "t.leaf")
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with tracer.span("t.scan"):
                threads = [threading.Thread(
                    target=lambda: [ns["leaf"]() for _ in range(50)])
                    for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        self.assertFalse(any(t.is_alive() for t in threads))
        spans = tracer.finish()
        scan = spans.ids("t.scan")[0]
        leaves = spans.ids("t.leaf")
        self.assertEqual(len(leaves), 200)
        self.assertTrue((spans.parent[leaves] == scan).all())
        self.assertGreater(spans.duration[leaves].sum(),
                           spans.duration[scan] - spans.self_time[scan])


class Checks(unittest.TestCase):
    def test_percentile(self):
        self.assertEqual(bench.percentile(range(1, 11), 0.5), 5)
        self.assertEqual(bench.percentile(range(1, 11), 0.9), 9)
        self.assertEqual(bench.percentile([7.0], 0.9), 7.0)

    def test_p90_needs_ten_samples_beyond_it(self):
        few = w.Run(latencies_s=[1.0, 3.0], setup_s=1.0, ops_per_s=1.0,
                    peak_rss_mb=1.0, ok=1, attempted=1)
        self.assertEqual(bench.end_to_end(few)["latency_p90_ms"], 2000.0)
        many = w.Run(latencies_s=[i / 1e3 for i in range(1, 101)],
                     setup_s=1.0, ops_per_s=1.0, peak_rss_mb=1.0, ok=1,
                     attempted=1)
        self.assertEqual(bench.end_to_end(many)["latency_p90_ms"], 90.0)

    def test_cycle_throughput_is_a_window_median(self):
        k = len(w.DEVICE_CYCLE)
        # Three windows of 1 s, then one stalled window of 9 s, plus a
        # partial window that is not counted.
        steps = [0.1] * (3 * k) + [0.9] * k + [5.0] * 3
        starts = [sum(steps[:i]) for i in range(len(steps) + 1)]
        self.assertAlmostEqual(w.cycle_throughput(starts), k / 1.0)

    def test_request_check_catches_moved_outputs(self):
        entry = w.load_reference("device_sweep")["requests"][0]
        got = {k: entry[k] for k in ("P_m", "V_mpp", "j_mpp", "eta", "Voc",
                                     "jsc")}
        got.update(kTc=25.9, kTs=500.0)
        self.assertEqual(w.check_request(entry, got), [])
        for key, factor in (("j_mpp", 1 + 3 * w.MPP_RTOL), ("eta", 2.0),
                            ("Voc", 1.001)):
            bad = dict(got, **{key: got[key] * factor})
            self.assertTrue(w.check_request(entry, bad), key)

    def test_escape_check_catches_a_moved_cell(self):
        ref = w.load_reference("escape_scan")
        d = w.ESCAPE_D_NM[0]
        rows = [f"# d = {float(d):.12g}", w.ESCAPE_HEADER]
        dj = ref["delta_j"][str(d)]
        k = 0
        for gv in ref["gamma_v"]:
            for gc in ref["gamma_c"]:
                rows.append(f"{gc:.12g},{gv:.12g},{dj[k]:.12g}")
                k += 1
        good = w.Run()
        w.check_escape(good, 0, "\n".join(rows), d, ref)
        self.assertEqual((good.failed, good.ok), (0, len(dj)))
        moved = list(rows)
        moved[5] = moved[5].rsplit(",", 1)[0] + ",0.5"
        bad = w.Run()
        w.check_escape(bad, 0, "\n".join(moved[:-1]), d, ref)
        self.assertEqual(bad.failed, 2)

    def test_gate_check(self):
        ref = {"verdicts": {str(k): "FAIL" if k == 6 else "PASS"
                            for k in range(1, 9)}}
        lines = [f"criterion {k} [{'FAIL' if k == 6 else 'PASS'}] c{k}"
                 for k in range(1, 9)]
        ok = w.Run()
        w.check_gate(ok, 3, "\n".join(lines + ["7/8 criteria passed"]), ref)
        self.assertEqual((ok.attempted, ok.failed, ok.ok), (8, 0, 7))
        lines[2] = lines[2].replace("PASS", "FAIL")
        bad = w.Run()
        w.check_gate(bad, 3, "\n".join(lines + ["6/8 criteria passed"]), ref)
        self.assertEqual(bad.failed, 1)
        wrong = w.Run()
        w.check_gate(wrong, 3, "\n".join(lines + ["7/8 criteria passed"]), ref)
        self.assertEqual(wrong.failed, 8)


class Quick(unittest.TestCase):
    def test_device_sweep_untraced_and_traced(self):
        plain = w.device_sweep(seed=1, seconds=0.5, trace=False)
        self.assertEqual(plain.failed, 0, plain.problems)
        self.assertGreater(plain.setup_s, 0.0)
        metrics = bench.end_to_end(plain)
        self.assertEqual(set(metrics),
                         {m["name"] for m in bench.SPEC["end_to_end"]})
        self.assertTrue(all(v > 0 for v in metrics.values()), metrics)
        traced = w.device_sweep(seed=1, seconds=0.5, trace=True)
        again = w.device_sweep(seed=1, seconds=0.5, trace=True)
        self.assertEqual(traced.failed, 0, traced.problems)
        self.assertEqual(set(traced.layer),
                         {m["name"] for m in bench.SPEC["per_layer"]})
        counts = [m["name"] for m in bench.SPEC["per_layer"]
                  if m["unit"] == "count"]
        self.assertEqual({k: traced.layer[k] for k in counts},
                         {k: again.layer[k] for k in counts})
        self.assertEqual(traced.layer["sweeps.iv_curve.calls"],
                         w.TRACED_REQUESTS)


if __name__ == "__main__":
    unittest.main()
