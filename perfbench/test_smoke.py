"""Smoke test of the benchmark: tiny corpora of every workload, end to end.

Run from the repository root with ``python3 perfbench/test_smoke.py``
(or ``python3 -m pytest perfbench/test_smoke.py``).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("walk", "zero_heavy", "tensor", "suite")


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class SmokeTest(unittest.TestCase):
    def test_end_to_end(self):
        want = declared("end_to_end")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = bench(workload, 0)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        want = declared("per_layer")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = bench(workload, 1)
                self.assertTrue(r["correct"])
                m = {k: v["value"] for k, v in r["metrics"].items()}
                self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
                self.assertLessEqual(m["trace.layers_self_s"], m["trace.wall_s"])
                self.assertGreater(m["trace.overhead_ratio"], 0)
                self.assertGreater(m["tutte.leaves"], 0)
                self.assertGreater(m["graph.pivot_class_key.calls"], 0)

    def test_negative_control(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = bench(workload, 0, "--corrupt")
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)

    def test_no_engine_sources(self):
        """Without src/reltutte the benchmark fails and prints no result."""
        import shutil
        import tempfile

        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
