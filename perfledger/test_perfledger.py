#!/usr/bin/env python3
"""Tests of the perfledger benchmark itself.

    python3 perfledger/test_perfledger.py

Runs every workload at tiny sizes (same code paths, seconds of work) and
checks that a run emits every metric BENCHMARK.json names, with its unit,
in the result line; that a deliberately corrupted expected answer trips the
workload's correctness gate and gives a non-zero exit; and that the
benchmark fails without a result when the fetcam sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class TinyRuns(unittest.TestCase):
    def check_result(self, workload, trace):
        code, res, err = run("--workload", workload, "--seed", "3", "--seconds", "3",
                             "--trace", str(trace), "--tiny")
        self.assertEqual(code, 0, err)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 0)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 1)

    def test_corrupted_oracle_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, res, err = run("--workload", workload, "--seed", "3", "--seconds", "3",
                                     "--tiny", "--corrupt-oracle")
                self.assertNotEqual(code, 0, err)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)


class BareCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfledger"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, res, _ = run("--workload", WORKLOADS[0], "--seed", "1", cwd=bare,
                               script=os.path.join(bare, "perfledger", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(res)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
