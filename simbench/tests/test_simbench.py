#!/usr/bin/env python3
"""simbench's own tests: every workload at a tiny size, through run.py.

Run from the repository root:

    python3 simbench/tests/test_simbench.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the untraced run's correctness checks pass, that a workload's digest
repeats for one seed and differs for a held-out seed, and that the traced
run's span file parses with non-negative self times.
"""

import json
import math
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, seed, trace):
    """Runs one tiny workload; returns (result line, report document)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "simbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.2", "--trace",
         str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report_path = next(l.split(": ", 1)[1] for l in lines
                       if l.startswith("report: "))
    report = json.loads(pathlib.Path(report_path).read_text())
    return result, report


class SimbenchTest(unittest.TestCase):

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                result, report = run(w["name"], 1, 0)
                self.check_metrics(result, BENCHMARK["end_to_end"])
                for m in BENCHMARK["end_to_end"]:
                    self.assertNotEqual(result["metrics"][m["name"]]["value"],
                                        0, m["name"])
                self.assertEqual(report["violations"], [])
                for key in ("commit", "build_type", "compiler", "sanitizer",
                            "nproc", "workers", "repeats", "seed", "date"):
                    self.assertIn(key, report["provenance"])

    def test_digest_repeats_for_a_seed_and_differs_for_another(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                _, first = run(w["name"], 5, 0)
                _, again = run(w["name"], 5, 0)
                _, other = run(w["name"], 6, 0)
                digests = {r["digest"] for r in first["repeats"]}
                self.assertEqual(len(digests), 1)
                self.assertEqual(again["repeats"][0]["digest"],
                                 first["repeats"][0]["digest"])
                self.assertNotEqual(other["repeats"][0]["digest"],
                                    first["repeats"][0]["digest"])

    def test_traced_run_prints_every_layer_metric_and_spans(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                result, report = run(w["name"], 1, 1)
                self.check_metrics(result, BENCHMARK["per_layer"])
                ledger = json.loads(
                    pathlib.Path(report["spans_path"]).read_text())
                spans = ledger["spans"]
                self.assertGreater(len(spans), 0)
                for s in spans:
                    self.assertGreaterEqual(s["self_ns"], 0, s["name"])
                    self.assertGreaterEqual(s["end_ns"], s["start_ns"])
                    if s["parent"] >= 0:
                        parent = spans[s["parent"]]
                        self.assertLessEqual(parent["start_ns"], s["start_ns"])
                        self.assertGreaterEqual(parent["end_ns"], s["end_ns"])
                names = {s["name"] for s in spans}
                for layer in ("setup", "traced_run"):
                    self.assertIn(layer, names)


if __name__ == "__main__":
    unittest.main()
