#!/usr/bin/env python3
"""Tests of crnet's benchmark itself.

Run from the root of a crnet checkout (takes about a minute, plus the
first build):

    python3 perfbench/test_bench.py

- the result line parses, and every metric BENCHMARK.json names is
  present with its unit, untraced and traced;
- the same seed run twice gives identical simulated metrics and digest;
- a deliberately wrong expected digest is reported as a failure.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace=0, seconds=0.5, expect=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if expect is not None:
        cmd += ["--expect-digest", expect]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split()[1] for l in lines if l.startswith("digest:"))
    return proc.returncode, result, digest


class BenchmarkOutput(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_untraced_run_reports_every_end_to_end_metric(self):
        for w in ("torus256_low", "fcr_faults"):
            rc, result, _ = run(w, seed=5)
            self.assertEqual(rc, 0, w)
            self.check_metrics(result, SPEC["end_to_end"])

    def test_traced_run_reports_every_per_layer_metric(self):
        for w in ("torus256_low", "fcr_faults"):
            rc, result, _ = run(w, seed=5, trace=1)
            self.assertEqual(rc, 0, w)
            self.check_metrics(result, SPEC["per_layer"])
            self.assertGreater(
                result["metrics"]["trace.overhead_ratio"]["value"], 0)

    def test_same_seed_gives_identical_simulated_results(self):
        _, first, d1 = run("torus256_sat", seed=11)
        _, second, d2 = run("torus256_sat", seed=11)
        self.assertEqual(d1, d2)
        for name, m in first["metrics"].items():
            if name.startswith("sim_"):
                self.assertEqual(m, second["metrics"][name], name)

    def test_wrong_expected_digest_is_a_failure(self):
        rc, result, digest = run("torus256_low", seed=5,
                                 expect="0123456789abcdef")
        self.assertNotEqual(digest, "0123456789abcdef")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
