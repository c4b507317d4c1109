#!/usr/bin/env python3
"""Tests for the mediator benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload in --smoke mode (small data, a few queries) through
perfbench/run.py, which builds the driver first if needed:
  * each run's result names exactly the metrics of BENCHMARK.json, with
    their units, and passes;
  * the oracle catches a deliberately corrupted answer;
  * two runs with the same seed give identical count metrics.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_METRICS = {
    0: ["true_cost_per_query"],
    1: ["ssdl.check_calls_per_query", "ssdl.earley_items_per_query",
        "exec.rows_transferred_per_query"],
}


def run(workload, trace, seed=7, extra=()):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--smoke", *extra]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = done.stdout.strip().split("\n")
    return done.returncode, json.loads(lines[-1]), done.stdout


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_its_metrics(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, output = run(workload, trace)
                    self.assertEqual(code, 0, output)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    self.assertIn('"optimized": true', output)


class OracleTest(unittest.TestCase):
    def test_corrupted_answer_is_flagged(self):
        code, result, output = run("form_new_constants", 0,
                                   extra=("--corrupt-query", "2"))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("answer differs from the oracle", output)


class DeterminismTest(unittest.TestCase):
    def test_same_seed_gives_identical_counts(self):
        for workload in WORKLOADS:
            for trace, names in COUNT_METRICS.items():
                with self.subTest(workload=workload, trace=trace):
                    first = run(workload, trace, seed=3)[1]["metrics"]
                    second = run(workload, trace, seed=3)[1]["metrics"]
                    for name in names:
                        self.assertEqual(first[name]["value"],
                                         second[name]["value"], name)


if __name__ == "__main__":
    unittest.main()
