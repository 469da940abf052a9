#!/usr/bin/env python3
"""Self-tests for the benchmark harness's statistics and failure accounting.

Run with `python3 perfbench/test_run.py`. They need no build and start no
program.
"""

import os
import sys
import tempfile
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class TailTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond_the_tail(self):
        for n in (11, 12, 60, 240, 1000):
            xs = list(range(n))
            value, pct, count = run.tail(reversed(xs))
            self.assertEqual(count, n)
            self.assertEqual(sum(1 for x in xs if x > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_no_tail_below_eleven_samples(self):
        self.assertEqual(run.tail([1.0] * 10), (None, None, 10))
        self.assertEqual(run.tail([]), (None, None, 0))

    def test_sample_count_is_reported(self):
        line = run.describe_latency([0.001 * i for i in range(1, 61)])
        self.assertIn("n=60", line)
        self.assertIn("p83.3", line)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # Request 0 stalls lane 0 for 0.3 s; request 2 is due 0.1 s in and
        # can only be sent once request 0 returns. Its latency must include
        # the 0.2 s it waited behind the stall, not just its own 0.01 s.
        def send(i):
            time.sleep(0.3 if i == 0 else 0.01)
            return 200, b""

        results = run.open_loop(4, 20.0, send, lanes=2)
        status, latency, late, _ = results[2]
        self.assertEqual(status, 200)
        self.assertGreater(late, 0.15)
        self.assertGreater(latency, late + 0.009)
        # Lane 1 was not stalled: request 1 went out on time.
        self.assertLess(results[1][2], 0.05)

    def test_lanes_take_alternate_requests(self):
        seen = {}

        def send(i):
            seen[i] = threading.current_thread().name
            return 200, b""

        run.open_loop(6, 200.0, send, lanes=2)
        self.assertEqual(seen[0], seen[2])
        self.assertEqual(seen[2], seen[4])
        self.assertEqual(seen[1], seen[3])
        self.assertNotEqual(seen[0], seen[1])

    def test_transport_error_is_a_failed_request(self):
        def send(i):
            if i == 1:
                raise ConnectionRefusedError("refused")
            return 200, b""

        results = run.open_loop(3, 100.0, send)
        self.assertEqual([r[0] for r in results], [200, 0, 200])


class FailureAccountingTest(unittest.TestCase):
    GOLD = "dc,planner,outcome\nA,Dynamic,completed\n"

    def test_all_good(self):
        self.assertEqual(run.count_failures([200, 200], [self.GOLD, self.GOLD], self.GOLD), 0)

    def test_golden_mismatch_counts(self):
        other = self.GOLD.replace("A", "B")
        self.assertEqual(run.count_failures([200, 200], [self.GOLD, other], self.GOLD), 1)

    def test_non_200_counts(self):
        for status in (503, 504, 500, 0):
            self.assertEqual(run.count_failures([200, status], [self.GOLD, None], self.GOLD), 1)

    def test_missing_reference_fails_everything(self):
        self.assertEqual(run.count_failures([200], [self.GOLD], None), 1)

    def test_completed_cells(self):
        self.assertTrue(run.all_completed(self.GOLD))
        self.assertFalse(run.all_completed(self.GOLD.replace("completed", "degraded")))
        self.assertFalse(run.all_completed("dc,planner,outcome\n"))


class GoldenTest(unittest.TestCase):
    TABLE = ("seed,dc,planner,outcome\n"
             "1,A,Dynamic,completed\n"
             "1,B,Dynamic,completed\n"
             "11,A,Dynamic,completed\n")

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        with open(os.path.join(self.dir.name, "w.cells.csv"), "w") as f:
            f.write(self.TABLE)
        saved, run.GOLDEN_DIR = run.GOLDEN_DIR, self.dir.name
        self.addCleanup(setattr, run, "GOLDEN_DIR", saved)

    def test_picks_the_rows_of_one_seed(self):
        self.assertEqual(run.golden("w", 1),
                         "dc,planner,outcome\nA,Dynamic,completed\nB,Dynamic,completed\n")
        self.assertEqual(run.golden("w", 11), "dc,planner,outcome\nA,Dynamic,completed\n")

    def test_uncovered_seed_has_no_golden_and_fails(self):
        self.assertIsNone(run.golden("w", 2))
        self.assertEqual(run.count_failures([200], ["dc,planner,outcome\n"], run.golden("w", 2)), 1)

    def test_every_seed_selects_a_covered_study_seed(self):
        for seed in run.GOLDEN_SEEDS:
            self.assertEqual(run.study_seed(seed), seed)
        for seed in (128, 1075237928, 2**63 - 1, -1):
            self.assertIn(run.study_seed(seed), run.GOLDEN_SEEDS)
            self.assertEqual(run.study_seed(seed), run.study_seed(seed))
        self.assertEqual(run.study_seed(1075237928), 1075237928 % 128)

    def test_committed_goldens_cover_every_golden_seed(self):
        run.GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(run.__file__)), "golden")
        self.assertIn(42, run.GOLDEN_SEEDS)
        for workload in run.WORKLOADS:
            for seed in run.GOLDEN_SEEDS:
                self.assertTrue(run.all_completed(run.golden(workload, seed) or ""), (workload, seed))
            self.assertIsNone(run.golden(workload, run.GOLDEN_SEEDS.stop))


class SpanSummaryTest(unittest.TestCase):
    def test_self_time_and_coverage(self):
        spans = [
            {"id": 0, "parent": None, "name": "bench.traced_run", "dur": 10.0},
            {"id": 1, "parent": 0, "name": "emulator.step", "dur": 6.0},
            {"id": 2, "parent": 0, "name": "journal.append", "dur": 3.0},
            {"id": 3, "parent": 2, "name": "emulator.checkpoint_encode", "dur": 1.0},
        ]
        roots, by_name = run.span_summary(spans)
        self.assertEqual(len(roots), 1)
        root = roots[0]
        self.assertAlmostEqual(root["spans"], 9.0)
        self.assertAlmostEqual(root["self"]["bench"], 1.0)
        self.assertAlmostEqual(root["self"]["journal"], 2.0)
        self.assertAlmostEqual(root["self"]["emulator"], 7.0)
        self.assertEqual(by_name["emulator.step"], [6.0])

    def test_coverage_is_of_the_traced_wall(self):
        # One traced run of 10 s whose layer spans cover 9 s, bracketed by
        # untraced runs of 11 and 13 s: coverage is 0.9 whatever the
        # untraced runs took, and the overhead is 10 - 12 s.
        with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as f:
            f.write("id,parent,name,start_us,end_us\n"
                    "0,,bench.traced_run,0,10000000\n"
                    "1,0,emulator.step,0,6000000\n"
                    "2,0,journal.append,6000000,9000000\n")
        self.addCleanup(os.unlink, f.name)
        summary = {"spans_path": f.name, "untraced_s": [11.0, 13.0], "cells": 1,
                   "cells_failed": 0, "counts": {}}
        metrics, _ = run.layer_metrics(summary)
        self.assertAlmostEqual(metrics["bench.coverage"], 0.9)
        self.assertAlmostEqual(metrics["bench.overhead_s"], -2.0)


if __name__ == "__main__":
    unittest.main()
