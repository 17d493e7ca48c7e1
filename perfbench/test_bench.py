#!/usr/bin/env python3
"""Tests of the benchmark itself, on seconds-long (`--tiny`) runs.

    python3 perfbench/test_bench.py        # from the repository root

Every workload must print exactly the end-to-end metrics `BENCHMARK.json`
names when untraced and exactly its per-layer metrics when traced, each
with its declared unit and a finite value, and pass its correctness
oracle. The oracle's own failure path is
covered by the Rust unit tests (`cargo test --manifest-path
perfbench/Cargo.toml`), which feed it deliberately wrong expected values.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = ["setup_s", "peak_rss_mb", "ok_frac", "jobs_per_s", "p50_ms",
              "p95_ms"]

LAYERS = [
    "core.sync_ns_per_inst", "core.prog_ns_per_inst", "core.phase_ns_per_inst",
    "core.ref_speedup", "cache.access_ns", "predictor.update_ns",
    "clock.tick_ns", "control.ilp_observe_ns", "workloads.capture_ns_per_inst",
    "workloads.prepare_ns_per_inst", "engine.sync_sweep_s",
    "engine.program_sweep_s", "engine.final_runs_s", "engine.unattributed_s",
    "engine.simulated", "engine.cache_hits", "engine.pool_hits",
    "engine.pool_builds", "engine.pool_hit_ratio", "engine.memo_hits",
    "engine.memo_stores", "sched.submit_pop_ns", "store.put_us_p50",
    "store.put_us_p99", "store.checkpoint_ms", "store.get_ns",
    "store.recover_ms", "protocol.request_parse_ns",
    "protocol.response_encode_ns", "protocol.response_parse_ns",
    "serve.connect_ms", "serve.simulated", "serve.cache_hits",
    "serve.expired", "serve.cancelled", "serve.hot_unattributed_ms",
    "serve.hi_direct_ms", "serve.hi_wait_ms", "cache.icache_miss_rate",
    "cache.l1d_miss_rate", "cache.l2_miss_rate", "predictor.mispredict_rate",
    "control.reconfigs_per_minst", "fig6.program_gain_pct",
    "fig6.phase_gain_pct", "trace.overhead_frac",
]

WORKLOADS = ["figure6", "serve_cold", "serve_hot"]


def run_bench(cwd, workload, trace, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return proc


class BenchmarkOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.units = {m["name"]: m["unit"]
                     for m in cls.spec["end_to_end"] + cls.spec["per_layer"]}

    def test_every_workload_prints_every_declared_metric(self):
        self.assertEqual(END_TO_END, [m["name"] for m in self.spec["end_to_end"]])
        self.assertEqual(LAYERS, [m["name"] for m in self.spec["per_layer"]])
        self.assertEqual(WORKLOADS, [w["name"] for w in self.spec["workloads"]])

    def check_run(self, workload, trace):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = LAYERS if trace else END_TO_END
        self.assertEqual(sorted(result["metrics"]), sorted(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(sorted(m), ["unit", "value"], name)
            self.assertEqual(m["unit"], self.units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)
        if not trace:
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
        provenance = json.loads(lines[-2])["provenance"]
        for key in ["nproc", "cpu_model", "kernel", "rustc", "build_profile",
                    "store_fs", "git_commit", "seed", "knobs"]:
            self.assertIn(key, provenance)

    def test_figure6(self):
        self.check_run("figure6", 0)

    def test_figure6_traced(self):
        self.check_run("figure6", 1)

    def test_serve_cold(self):
        self.check_run("serve_cold", 0)

    def test_serve_cold_traced(self):
        self.check_run("serve_cold", 1)

    def test_serve_hot(self):
        self.check_run("serve_hot", 0)

    def test_serve_hot_traced(self):
        self.check_run("serve_hot", 1)

    def test_stray_knob_is_removed(self):
        env = dict(os.environ, GALS_MCD_COHORT_WIDTH="0")
        proc = run_bench(ROOT, "serve_hot", 0, env)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        provenance = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
        self.assertIn("GALS_MCD_COHORT_WIDTH", provenance["removed_env"])
        self.assertNotIn("COHORT", provenance["knobs"])

    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ,
                       CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
            proc = run_bench(bare, "serve_hot", 0, env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
