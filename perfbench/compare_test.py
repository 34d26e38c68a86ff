#!/usr/bin/env python3
"""Tests of compare.py's arithmetic and grouping (stdlib unittest)."""

import io
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "hot", "why": ""}, {"name": "hot_wire", "why": ""}],
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "req/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "engine.us", "unit": "us", "better": "lower"}],
}


def run_output(metrics, correct=True, failed=0, units="ms"):
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": units}
                          for k, v in metrics.items()}}
    return "settings: ...\nsome figures\n" + json.dumps(result) + "\n\n"


class SummarizeTest(unittest.TestCase):
    def test_quartiles_and_spread_follow_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        median, q1, q3, spread = compare.summarize(values)
        self.assertEqual(median, 14.5)
        self.assertEqual((q1, q3), (11.75, 17.25))
        self.assertAlmostEqual(spread, (17.25 - 11.75) / 14.5)

    def test_single_run_has_no_spread(self):
        self.assertEqual(compare.summarize([3.0]), (3.0, 3.0, 3.0, 0.0))


class VerdictTest(unittest.TestCase):
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]

    def test_within_bound_is_ok(self):
        head = [v * 1.05 for v in self.steady]
        word, change = compare.verdict(self.steady, head, 0.1, "lower")
        self.assertEqual(word, "ok")
        self.assertAlmostEqual(change, 0.05)

    def test_direction_follows_better(self):
        head = [v * 1.2 for v in self.steady]
        self.assertEqual(compare.verdict(self.steady, head, 0.1, "lower")[0],
                         "worse")
        self.assertEqual(compare.verdict(self.steady, head, 0.1, "higher")[0],
                         "better")

    def test_wide_spread_is_unresolved_unless_every_run_wins(self):
        noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
        self.assertEqual(
            compare.verdict(self.steady, noisy, 0.1, "lower")[0],
            "unresolved")
        all_better = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(
            compare.verdict(self.steady, all_better, 0.1, "lower")[0],
            "better")


class GroupingTest(unittest.TestCase):
    def test_runs_group_by_longest_workload_prefix_and_mode(self):
        named = [
            ("hot-seed1.out", run_output({"p50_ms": 1.0, "qps": 5.0})),
            ("hot_wire-seed1.out", run_output({"p50_ms": 2.0, "qps": 6.0})),
            ("hot_wire-trace.out", run_output({"engine.us": 7.0}, units="us")),
            ("notes.txt", "not a run"),
        ]
        groups, problems = compare.group_runs(named, SPEC)
        self.assertEqual(problems, [])
        self.assertEqual(groups[("hot", False)], [{"p50_ms": 1.0, "qps": 5.0}])
        self.assertEqual(groups[("hot_wire", False)],
                         [{"p50_ms": 2.0, "qps": 6.0}])
        self.assertEqual(groups[("hot_wire", True)], [{"engine.us": 7.0}])

    def test_failed_and_broken_runs_are_left_out_and_reported(self):
        named = [
            ("hot-1.out", run_output({"p50_ms": 1.0}, correct=False)),
            ("hot-2.out", run_output({"p50_ms": 1.0}, failed=3)),
            ("hot-3.out", "crashed before printing"),
        ]
        groups, problems = compare.group_runs(named, SPEC)
        self.assertEqual(groups, {})
        self.assertEqual(len(problems), 3)

    def test_report_names_each_metric_with_its_verdict(self):
        base = {("hot", False): [{"p50_ms": 1.0, "qps": 100.0}] * 3,
                ("hot", True): [{"engine.us": 10.0}]}
        head = {("hot", False): [{"p50_ms": 1.5, "qps": 101.0}] * 3,
                ("hot", True): [{"engine.us": 12.0}]}
        out = io.StringIO()
        compare.compare(base, head, SPEC, out=out)
        lines = out.getvalue().splitlines()
        p50 = [line for line in lines if line.strip().startswith("p50_ms")]
        qps = [line for line in lines if line.strip().startswith("qps")]
        engine = [line for line in lines if "engine.us" in line]
        self.assertTrue(p50[0].endswith("worse"))
        self.assertIn("+50.0%", p50[0])
        self.assertTrue(qps[0].endswith("ok"))
        self.assertIn("+20.0%", engine[0])


if __name__ == "__main__":
    unittest.main()
