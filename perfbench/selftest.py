#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny ``--smoke`` inputs.

    python3 perfbench/selftest.py

Each test starts ``run.py`` as a subprocess from the root of the checkout,
as the benchmark is meant to be run.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("train.steps", "model.flops", "noise.members_scored", "data.web_members")


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    cmd = [sys.executable, "perfbench/run.py", "--smoke", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class TestBenchmark(unittest.TestCase):

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, _ = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_flipped_checkpoint_byte_is_a_failed_operation(self):
        result, stdout = bench("grid-default", 0, "--inject-fault")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        line = next(l for l in stdout.splitlines() if l.startswith("ops_failed_frac"))
        self.assertGreater(float(line.split()[2]), 0.0)

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = bench(workload, 1)
                second, _ = bench(workload, 1)
                for name in COUNTS:
                    self.assertEqual(first["metrics"][name], second["metrics"][name])
        self.assertGreater(first["metrics"]["data.web_members"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
