#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Builds through run.py, then checks that
  * the deterministic per-layer counts repeat exactly for a fixed seed,
  * a different seed changes the generated inputs,
  * in the written trace, child spans sum to no more than their parent,
  * the output names every BENCHMARK.json metric with its unit.
Each run is short (a few seconds), so the timings are not representative.
"""

import json
import os
import subprocess
import sys
import unittest
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
SELF = os.path.join(BUILD, "selftest")
WORKLOADS = ("cli", "paper_matrix", "sweep_matrix", "oracle_grid")
DETERMINISTIC = ("ir.compiles", "semantics.runs", "semantics.steps",
                 "refinement.grid_cells", "refinement.injected_runs",
                 "memory.ops")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_py(workload, trace, seed=1, seconds=2):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stdout + out.stderr)
    return out.stdout


def harness(workload, seed, trace, tag, seconds=1):
    """Runs the built harness directly and returns its full result."""
    os.makedirs(SELF, exist_ok=True)
    out = os.path.join(SELF, "%s-%s.json" % (workload, tag))
    spans = os.path.join(SELF, "%s-%s.tsv" % (workload, tag))
    cmd = [os.path.join(BUILD, "e2e_harness"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--root", ROOT,
           "--bin", os.path.join(BUILD, "qcm", "tools"),
           "--expected", os.path.join(HERE, "expected_cli.txt"),
           "--out", out, "--spans", spans]
    subprocess.run(cmd, check=True, timeout=300, stdout=subprocess.DEVNULL)
    with open(out) as f:
        return json.load(f), spans


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the tree, and doubles as the metric-naming check's input.
        cls.untraced = run_py("paper_matrix", 0)
        cls.traced = run_py("paper_matrix", 1)

    def test_output_names_every_metric_with_its_unit(self):
        for stdout, section in ((self.untraced, "end_to_end"),
                                (self.traced, "per_layer")):
            last = json.loads(stdout.strip().splitlines()[-1])
            self.assertEqual(set(last),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            self.assertEqual(got, want)
            # The human-readable lines carry the name, unit and sample count.
            for name, unit in want.items():
                self.assertRegex(stdout, r"\n  %s +\S+ %s .*\(\d+ samples\)"
                                 % (name.replace(".", r"\."), unit))

    def test_deterministic_counts_repeat_for_a_fixed_seed(self):
        for workload in WORKLOADS:
            a, _ = harness(workload, 5, 1, "det-a")
            b, _ = harness(workload, 5, 1, "det-b")
            self.assertEqual(a["wrong"], 0, a["errors"])
            self.assertEqual(a["deterministic_counts"],
                             b["deterministic_counts"], workload)
            for name in DETERMINISTIC:
                self.assertEqual(a["per_layer"][name]["value"],
                                 b["per_layer"][name]["value"],
                                 "%s %s" % (workload, name))

    def test_seed_changes_generated_inputs(self):
        for workload in ("sweep_matrix", "oracle_grid"):
            one, _ = harness(workload, 1, 0, "seed-1")
            again, _ = harness(workload, 1, 0, "seed-1b")
            two, _ = harness(workload, 2, 0, "seed-2")
            self.assertEqual(one["inputs_digest"], again["inputs_digest"])
            self.assertNotEqual(one["inputs_digest"], two["inputs_digest"])

    def test_child_spans_fit_in_their_parent(self):
        # Per thread: the children one thread ran inside a parent cannot
        # take longer than the parent (threaded children run side by side).
        for workload in WORKLOADS:
            _, path = harness(workload, 3, 1, "spans")
            spans, kids = {}, defaultdict(int)
            with open(path) as f:
                next(f)
                for line in f:
                    sid, parent, _, thread, _, start, end = line.split("\t")
                    spans[sid] = int(end) - int(start)
                    kids[(parent, thread)] += int(end) - int(start)
            self.assertTrue(spans, workload)
            for (parent, thread), total in kids.items():
                if parent != "0":
                    self.assertLessEqual(total, spans[parent],
                                         "%s span %s" % (workload, parent))


if __name__ == "__main__":
    unittest.main(verbosity=2)
