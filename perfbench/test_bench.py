#!/usr/bin/env python3
"""Self-test of the benchmark: output contract and output checks.

    python3 perfbench/test_bench.py

Builds g10perf if needed and runs short passes of the cheapest
workload. Checks that pinned goldens pass, that a corrupted golden
makes every op fail, that a failed reference run counts as failed ops,
that the result line has exactly the contracted keys, and that run.py
refuses to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

WORKLOAD = "ssd_gc"


class BenchmarkTest(unittest.TestCase):
    def test_pinned_golden_passes(self):
        info, result = run.bench(WORKLOAD, run.DEFAULT_SEED, 1, 0,
                                 run.HERE / "goldens.json")
        self.assertEqual(info["golden"], "match")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]),
                         {"op_s.p50", "op_s.p90", "op_cpu_s.p50",
                          "peak_rss_mb", "setup_s"})
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_corrupted_golden_fails_every_op(self):
        goldens = json.loads((run.HERE / "goldens.json").read_text())
        digest = goldens[WORKLOAD][-1]
        goldens[WORKLOAD][-1] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as d:
            path = Path(d) / "goldens.json"
            path.write_text(json.dumps(goldens))
            info, result = run.bench(WORKLOAD, run.DEFAULT_SEED, 1, 0, path)
        self.assertEqual(info["golden"], "mismatch")
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_other_seed_checks_against_reference_only(self):
        info, result = run.bench(WORKLOAD, run.HELD_OUT_SEED, 1, 0,
                                 run.HERE / "goldens.json")
        self.assertEqual(info["golden"], "absent")
        self.assertTrue(result["correct"])

    def test_failed_reference_counts_as_failed_ops(self):
        # Stream 0's reference run gets an unknown flag, so it exits non-zero.
        start = run.start

        def start_breaking_first_reference(binary, args):
            if "--reference" in args and args[args.index("--seed") + 1] in first:
                args = ["--no-such-flag"]
            return start(binary, args)

        first = {str(s * run.PROCESSES) for s in (run.DEFAULT_SEED, run.HELD_OUT_SEED)}
        with mock.patch.object(run, "start", start_breaking_first_reference):
            info, result = run.bench(WORKLOAD, run.DEFAULT_SEED, 1, 0,
                                     run.HERE / "goldens.json")
            # The pinned golden stands in: only the reference run failed.
            self.assertEqual(info["golden"], "match")
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], 1)
            self.assertGreater(result["attempted"], 1)

            info, result = run.bench(WORKLOAD, run.HELD_OUT_SEED, 1, 0,
                                     run.HERE / "goldens.json")
            # No golden: every op of stream 0 fails too, the rest pass.
            self.assertEqual(info["reference"][0], run.UNAVAILABLE)
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 1)
            self.assertGreater(result["attempted"], result["failed"])
            self.assertEqual(set(result["metrics"]),
                             {"op_s.p50", "op_s.p90", "op_cpu_s.p50",
                              "peak_rss_mb", "setup_s"})

    def test_traced_pass_reports_every_layer_metric(self):
        info, result = run.bench(WORKLOAD, run.DEFAULT_SEED, 1, 1,
                                 run.HERE / "goldens.json")
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), [n for n, _ in run.LAYER_METRICS])
        self.assertGreater(info["traced_ops"], 0)
        self.assertEqual(result["metrics"]["ssd.block_erases"]["value"], 10208)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as d:
            shutil.copytree(run.HERE, Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", d)
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                WORKLOAD, "--seconds", "1"], cwd=d,
                               capture_output=True, text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
