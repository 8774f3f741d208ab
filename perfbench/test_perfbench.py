#!/usr/bin/env python3
"""The benchmark's own tests, on the tiny workload sizes.

    python3 -m unittest perfbench/test_perfbench.py

Run from the repository root; the first test builds the binaries.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def setUpModule():
    (ROOT / ".bench_work").mkdir(exist_ok=True)


def bench(workload, trace=0, *extra):
    """Runs one tiny benchmark run; returns (final JSON, stamped record)."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        out = Path(tmp) / "results.jsonl"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                "--scale", "tiny", "--out", str(out), *extra]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(out.read_text().splitlines()[-1])
    return result, record


class Smoke(unittest.TestCase):
    """Every workload prints every metric BENCHMARK.json names, with its unit."""

    def check_metrics(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float, m["name"])

    def test_every_workload_prints_every_metric(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for workload in names:
            with self.subTest(workload=workload, trace=0):
                result, record = bench(workload)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                stamp = record["stamp"]
                for key in ("available_parallelism", "build_profile", "git_rev",
                            "rustc", "seed", "repeats"):
                    self.assertIn(key, stamp)
            with self.subTest(workload=workload, trace=1):
                result, _ = bench(workload, 1)
                self.check_metrics(result, SPEC["per_layer"])


class Negative(unittest.TestCase):
    """A wrong output must count as a failed operation."""

    def test_flipped_digest_fails(self):
        _, record = bench("offline_analyze")
        digests = record["digests"]
        self.assertIn("gc_capture", digests)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            pins = Path(tmp) / "digests.json"
            pins.write_text(json.dumps({"tiny": {str(SEED): digests}}))
            good, _ = bench("offline_analyze", 0, "--digests", str(pins))
            self.assertEqual(good["failed"], 0, good)
            flipped = dict(digests)
            d = flipped["gc_capture"]
            flipped["gc_capture"] = ("1" if d[0] == "0" else "0") + d[1:]
            pins.write_text(json.dumps({"tiny": {str(SEED): flipped}}))
            bad, _ = bench("offline_analyze", 0, "--digests", str(pins))
        self.assertGreaterEqual(bad["failed"], 1)
        self.assertFalse(bad["correct"])

    def test_corrupted_chunk_fails(self):
        for workload in ("offline_analyze", "live_monitor"):
            with self.subTest(workload=workload):
                result, _ = bench(workload, 0, "--corrupt-chunk")
                self.assertGreaterEqual(result["failed"], 1)
                self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
