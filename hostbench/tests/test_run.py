#!/usr/bin/env python3
"""Tests of the host benchmark itself (not of the library it measures).

Run from the root of a source checkout:

    python3 hostbench/tests/test_run.py

Builds the benchmark through run.py, runs the C++ self-test (percentiles and
sample counts, failure accounting, generators, trace JSON), then checks the
binary end to end: a short traced run whose Chrome trace must parse, the
result line's keys, and the refusal to produce a result without sources.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("hostbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)


class HostbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_selftest_binary(self):
        proc = subprocess.run([str(run.BUILD_DIR / "hostbench_selftest")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("checks passed", proc.stdout)

    def test_traced_run_writes_parsable_trace(self):
        report = run.run_binary("wildcard_deep", seed=5, seconds=1, trace=1)
        self.assertTrue(report["correct"], report["problems"])
        self.assertEqual(report["failed"], 0)
        for name in run.expected_metrics(trace=1):
            self.assertIn(name, report["metrics"])
        self.assertGreaterEqual(report["metrics"]["trace.api_coverage"]["value"], 0.9)
        trace = json.loads(Path(report["info"]["trace_file"]).read_text())
        events = trace["traceEvents"]
        self.assertEqual(len(events), report["info"]["spans"])
        ids = {e["args"]["id"]: e for e in events}
        supersteps = [e for e in events if e["cat"] == "superstep"]
        self.assertEqual(len(supersteps), report["info"]["traced_supersteps"])
        for e in events:
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)
            if e["cat"] == "call":
                parent = ids[e["args"]["parent"]]
                self.assertEqual(parent["cat"], "superstep")
                self.assertEqual(parent["args"]["superstep"], e["args"]["superstep"])
        self.assertTrue(any(e["cat"] == "probe" and e["args"]["parent"] for e in events))

    def test_result_line_keys(self):
        report = run.run_binary("wildcard_deep", seed=6, seconds=1, trace=0)
        self.assertTrue(report["correct"], report["problems"])
        line = json.loads(run.result_line(report))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), set(run.expected_metrics(trace=0)))
        for m in line["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertGreater(m["value"], 0)
        self.assertGreaterEqual(report["info"]["superstep_samples"], 100)
        self.assertTrue(report["info"]["p90_supported"])

    def test_no_result_without_sources(self):
        bare = run.OUT_DIR / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "hostbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "hostbench/run.py", "--workload",
                               "ring_bulk", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=170, check=False)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
