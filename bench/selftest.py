#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny sizes. Run from the checkout root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import unittest

import run_bench

run_bench.import_orag()
import workloads  # noqa: E402  (needs orag on the path)

with open(os.path.join(run_bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)

TINY = copy.deepcopy(workloads.WORKLOADS)
TINY["churn-rerank-10k"].update(rounds=12, setup_repeats=2)
TINY["churn-rerank-10k"]["config"].update(I=40, d=8, K=3)
TINY["offline-regret"].update(jobs=3, oracle_passes=5, replay_rounds=10, setup_repeats=2)
TINY["offline-regret"]["config"].update(I=10, d=4, T=40)


def tiny(name: str, seed: int = 1, trace: bool = False):
    return run_bench.measure(name, seed, 0.05, trace, params=TINY[name])


class WorkloadTest(unittest.TestCase):
    def test_workload_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(workloads.WORKLOADS))

    def test_each_workload_reports_every_metric_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace, declared in ((False, BENCH["end_to_end"]), (True, BENCH["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    info, result = tiny(name, trace=trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], info["failed_checks"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared})
                    for key, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), key)
                    if not trace:
                        for key, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, key)

    def test_traced_counts(self):
        _, result = tiny("churn-rerank-10k", trace=True)
        k = TINY["churn-rerank-10k"]["config"]["K"]
        self.assertEqual(result["metrics"]["policy.uniforms"]["value"], k)
        self.assertEqual(result["metrics"]["catalog.rows_written"]["value"], 1)
        _, result = tiny("offline-regret", trace=True)
        self.assertEqual(result["metrics"]["simulator.score_calls_per_round"]["value"], 2)

    def test_seed_changes_the_inputs_and_repeats_them(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a, _ = tiny(name, seed=1)
                b, _ = tiny(name, seed=2)
                again, _ = tiny(name, seed=1)
                self.assertNotEqual(a["inputs_sha256"], b["inputs_sha256"])
                self.assertEqual(a["inputs_sha256"], again["inputs_sha256"])
                self.assertEqual(a["fingerprints"], again["fingerprints"])


class CommandTest(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        bare = os.path.join(run_bench.OUT, "bare-selftest")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run_bench.ROOT, "BENCHMARK.json"), bare)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(run_bench.ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                                    "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
