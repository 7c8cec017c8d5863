#!/usr/bin/env python3
"""Unit tests for bench_diff.py (stdlib only).

Run directly:  python3 tools/test_bench_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_diff.py")


def run_tool(*argv):
    return subprocess.run([sys.executable, TOOL, *argv],
                          capture_output=True, text=True)


def bench_json(entries):
    return json.dumps({
        "benchmarks": [{"name": n, "real_time": t} for n, t in entries]
    })


def serve_json(points):
    """ansmet-serve-v1 text from [(offered_qps, dropped, total_p99_ps)]."""
    sweep = []
    for qps, dropped, p99 in points:
        phases = {
            name: {"count": 96, "p50_ps": p99 // 2, "p99_ps": p99,
                   "p999_ps": p99, "max_ps": p99, "mean_ps": p99 / 2.0}
            for name in ("queue_wait", "traverse", "offload", "compute",
                         "collect", "total")
        }
        sweep.append({"offered_qps": qps, "achieved_qps": qps * 0.9,
                      "offered": 96, "completed": 96 - dropped,
                      "dropped": dropped, "max_occupied_qshrs": 16,
                      "phases": phases})
    return json.dumps({"schema": "ansmet-serve-v1", "design": "NDP-ETOpt",
                       "dataset": "sift", "seed": 1, "process": "poisson",
                       "sweep": sweep})


class TempFiles(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, content):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path


class MalformedInput(TempFiles):
    def test_missing_file_exits_2(self):
        ok = self.write("ok.json", bench_json([("a", 1.0)]))
        r = run_tool(ok, os.path.join(self._dir.name, "nope.json"))
        self.assertEqual(r.returncode, 2)
        self.assertIn("cannot read benchmark file", r.stderr)
        self.assertIn("nope.json", r.stderr)

    def test_invalid_json_exits_2(self):
        bad = self.write("bad.json", '{"benchmarks": [')
        ok = self.write("ok.json", bench_json([("a", 1.0)]))
        r = run_tool(bad, ok)
        self.assertEqual(r.returncode, 2)
        self.assertIn("not valid JSON", r.stderr)

    def test_wrong_shape_exits_2(self):
        bad = self.write("list.json", "[1, 2, 3]")
        r = run_tool("--speedup", bad)
        self.assertEqual(r.returncode, 2)
        self.assertIn("expected a google-benchmark JSON object", r.stderr)

    def test_entry_missing_real_time_exits_2(self):
        bad = self.write("bad.json",
                         json.dumps({"benchmarks": [{"name": "x"}]}))
        r = run_tool("--speedup", bad)
        self.assertEqual(r.returncode, 2)
        self.assertIn("malformed name/real_time", r.stderr)

    def test_empty_benchmarks_exits_2(self):
        bad = self.write("empty.json", json.dumps({"benchmarks": []}))
        r = run_tool("--speedup", bad)
        self.assertEqual(r.returncode, 2)
        self.assertIn("no benchmark entries", r.stderr)


class DeltaMode(TempFiles):
    def test_reports_deltas_without_threshold(self):
        old = self.write("old.json", bench_json([("a", 100.0),
                                                 ("b", 50.0)]))
        new = self.write("new.json", bench_json([("a", 150.0),
                                                 ("b", 50.0)]))
        r = run_tool(old, new)
        self.assertEqual(r.returncode, 0)
        self.assertIn("+50.0%", r.stdout)

    def test_threshold_fails_on_regression(self):
        old = self.write("old.json", bench_json([("a", 100.0)]))
        new = self.write("new.json", bench_json([("a", 150.0)]))
        r = run_tool(old, new, "--threshold", "20")
        self.assertEqual(r.returncode, 1)
        self.assertIn("FAIL", r.stderr)

    def test_disjoint_benchmarks_fail(self):
        old = self.write("old.json", bench_json([("a", 1.0)]))
        new = self.write("new.json", bench_json([("b", 1.0)]))
        r = run_tool(old, new)
        self.assertEqual(r.returncode, 1)
        self.assertIn("no shared benchmarks", r.stderr)


class SpeedupMode(TempFiles):
    def test_ratio_and_require(self):
        f = self.write("k.json", bench_json([
            ("kernel_l2/fp32/scalar", 100.0),
            ("kernel_l2/fp32/avx2", 25.0),
        ]))
        r = run_tool("--speedup", f, "--min-ratio", "2.0",
                     "--require", "kernel_l2/fp32/avx2")
        self.assertEqual(r.returncode, 0)
        self.assertIn("4.00x", r.stdout)

    def test_ref_opt_tier_pairs_against_ref(self):
        f = self.write("s.json", bench_json([
            ("sim_queue/replay/ref", 300.0),
            ("sim_queue/replay/opt", 100.0),
            ("sim_replay/fig06_ndp/opt", 50.0),  # no ref sibling
        ]))
        r = run_tool("--speedup", f, "--min-ratio", "2.0",
                     "--require", "sim_queue/replay/opt")
        self.assertEqual(r.returncode, 0)
        self.assertIn("3.00x", r.stdout)
        self.assertNotIn("fig06_ndp", r.stdout)

    def test_scalar_baseline_wins_over_ref(self):
        # A family carrying both baselines pairs against scalar.
        f = self.write("m.json", bench_json([
            ("x/scalar", 400.0),
            ("x/ref", 200.0),
            ("x/opt", 100.0),
        ]))
        r = run_tool("--speedup", f)
        self.assertEqual(r.returncode, 0)
        self.assertIn("4.00x", r.stdout)

    def test_require_below_ratio_fails(self):
        f = self.write("k.json", bench_json([
            ("kernel_l2/fp32/scalar", 100.0),
            ("kernel_l2/fp32/avx2", 90.0),
        ]))
        r = run_tool("--speedup", f, "--min-ratio", "2.0",
                     "--require", "kernel_l2/fp32/avx2")
        self.assertEqual(r.returncode, 1)
        self.assertIn("below", r.stderr)


class FiguresMode(TempFiles):
    FIG = "header\nrow 1  2.00x\nrow 2  1.50x\n"

    def test_identical_modulo_timing(self):
        a = self.write("a.txt", self.FIG + "[timing] total: 3.21 s\n")
        b = self.write("b.txt", self.FIG + "[timing] total: 9.87 s\n")
        r = run_tool("--figures", a, b)
        self.assertEqual(r.returncode, 0)
        self.assertIn("figures identical", r.stdout)

    def test_changed_cell_fails_with_diff(self):
        a = self.write("a.txt", self.FIG)
        b = self.write("b.txt", self.FIG.replace("1.50x", "1.51x"))
        r = run_tool("--figures", a, b)
        self.assertEqual(r.returncode, 1)
        self.assertIn("-row 2  1.50x", r.stdout)
        self.assertIn("+row 2  1.51x", r.stdout)
        self.assertIn("FAIL", r.stderr)

    def test_empty_figure_exits_2(self):
        a = self.write("a.txt", "[timing] only a footer\n")
        b = self.write("b.txt", self.FIG)
        r = run_tool("--figures", a, b)
        self.assertEqual(r.returncode, 2)
        self.assertIn("no figure output", r.stderr)


class TailMode(TempFiles):
    def test_gate_passes_with_unit_suffix(self):
        # total p99 is 5us = 5e6 ps; a 60us bound passes.
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        r = run_tool("--tail", f, "--gate", "total.p99<=60us",
                     "--gate", "dropped<=0")
        self.assertEqual(r.returncode, 0)
        self.assertIn("ok: total.p99_ps", r.stdout)
        self.assertIn("ok: dropped", r.stdout)

    def test_gate_fails_above_bound(self):
        f = self.write("s.json", serve_json([(1e6, 0, 70_000_000)]))
        r = run_tool("--tail", f, "--gate", "total.p99<=60us")
        self.assertEqual(r.returncode, 1)
        self.assertIn("exceeds", r.stderr)

    def test_units_are_converted(self):
        # 5e6 ps == 5000 ns == 5 us == 0.005 ms; all four spellings of
        # the same bound must agree.
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        for bound in ("5000000ps", "5000000", "5000ns", "5us", "0.005ms"):
            r = run_tool("--tail", f, "--gate", f"total.p99<={bound}")
            self.assertEqual(r.returncode, 0, msg=bound)
        r = run_tool("--tail", f, "--gate", "total.p99<=4999999ps")
        self.assertEqual(r.returncode, 1)

    def test_sweep_index_selects_point(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000),
                                             (4e6, 10, 80_000_000)]))
        r = run_tool("--tail", f, "--gate", "total.p99<=60us")
        self.assertEqual(r.returncode, 0)  # default: point 0
        r = run_tool("--tail", f, "--sweep-index", "1",
                     "--gate", "total.p99<=60us")
        self.assertEqual(r.returncode, 1)
        r = run_tool("--tail", f, "--sweep-index", "2",
                     "--gate", "total.p99<=60us")
        self.assertEqual(r.returncode, 2)
        self.assertIn("out of range", r.stderr)

    def test_counter_gates(self):
        f = self.write("s.json", serve_json([(4e6, 10, 5_000_000)]))
        r = run_tool("--tail", f, "--gate", "dropped<=0")
        self.assertEqual(r.returncode, 1)
        r = run_tool("--tail", f, "--gate", "dropped<=10",
                     "--gate", "completed>=86")
        self.assertEqual(r.returncode, 0)
        r = run_tool("--tail", f, "--gate", "completed>=96")
        self.assertEqual(r.returncode, 1)

    def test_malformed_gate_exits_2(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        for bad in ("bogus", "total.p98<=1us", "total.p99<=fast",
                    "dropped<=many"):
            r = run_tool("--tail", f, "--gate", bad)
            self.assertEqual(r.returncode, 2, msg=bad)

    def test_unknown_phase_fails(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        r = run_tool("--tail", f, "--gate", "warmup.p99<=1us")
        self.assertEqual(r.returncode, 1)
        self.assertIn("not", r.stderr)

    def test_wrong_schema_exits_2(self):
        f = self.write("s.json", bench_json([("a", 1.0)]))
        r = run_tool("--tail", f, "--gate", "total.p99<=60us")
        self.assertEqual(r.returncode, 2)
        self.assertIn("ansmet-serve-v1", r.stderr)

    def test_empty_sweep_exits_2(self):
        f = self.write("s.json",
                       json.dumps({"schema": "ansmet-serve-v1",
                                   "sweep": []}))
        r = run_tool("--tail", f)
        self.assertEqual(r.returncode, 2)
        self.assertIn("sweep is empty", r.stderr)

    def test_no_gates_reports_only(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        r = run_tool("--tail", f)
        self.assertEqual(r.returncode, 0)
        self.assertIn("offered qps", r.stdout)

    def test_tail_excludes_other_modes(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        r = run_tool("--tail", "--speedup", f)
        self.assertEqual(r.returncode, 2)
        self.assertIn("mutually exclusive", r.stderr)


if __name__ == "__main__":
    unittest.main()
