#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload at its smoke size
(CG/IS at 16 ranks, perftest at 1% of the iterations), untraced and traced,
and checks that every metric named in BENCHMARK.json is printed with its
unit, that every point's simulated output matches expected.json (which also
pins the benchmark's copy of the perftest bandwidth loop to
perftest::run_bandwidth), and that fail_frac is 0. It also checks that the
benchmark refuses to run, without printing a result, when the simulator
sources are absent.

    python3 perfbench/test_smoke.py      # from the repository root
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, env=None, script=RUN):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench("--workload", workload, "--size", "smoke", "--seed", "7",
                         "--seconds", "0", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if trace:
            self.assertEqual(metrics["fail_frac"], 0)
            self.assertEqual(metrics["trace.dropped"], 0)
            self.assertEqual(metrics["causal.evicted"], 0)
            self.assertGreater(metrics["causal.spans"], 0)
        else:
            for m in SPEC["end_to_end"]:
                self.assertGreater(metrics[m["name"]], 0, m["name"])
        return metrics

    def test_npb_cg(self):
        self.check("npb_cg", 0)
        self.check("npb_cg", 1)

    def test_npb_is(self):
        self.check("npb_is", 0)
        metrics = self.check("npb_is", 1)
        self.assertGreater(metrics["sock.msgs"], 0)

    def test_perftest_bw(self):
        self.check("perftest_bw", 0)
        metrics = self.check("perftest_bw", 1)
        self.assertGreater(metrics["nic.fused_frac"], 0)

    def test_events_repeat(self):
        a = self.check("npb_cg", 0)
        b = run_bench("--workload", "npb_cg", "--size", "smoke", "--seed", "8",
                      "--seconds", "0")
        b = json.loads(b.stdout.strip().splitlines()[-1])["metrics"]
        self.assertEqual(a["events"], b["events"]["value"])
        self.assertEqual(a["events_per_msg"], b["events_per_msg"]["value"])

    def test_refuses_without_sources(self):
        build = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
        bare = build.resolve() / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        try:
            proc = run_bench("--workload", "npb_cg", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare, env=env,
                             script=bare / HERE.name / RUN.name)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
