"""Self-test of the benchmark, kept out of the package's test suite.

Run from the root of a checkout with ``python3 -m pytest -q bench`` (or
``python3 -m unittest discover -s bench``).  Quick-size runs of every
workload must report every metric named in ``BENCHMARK.json`` with no
failed query, and a route that returns a perturbed class must be counted
as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def names(section):
    return {metric["name"] for metric in SPEC[section]}


class QuickRuns(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual(list(wl.WORKLOADS), [w["name"] for w in SPEC["workloads"]])

    def test_end_to_end_metrics_and_no_failures(self):
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                result, lines = run.run_workload(name, seed=3, seconds=0.2, trace=False, quick=True)
                self.assertEqual(set(result["metrics"]), names("end_to_end"))
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_layer_metrics_and_no_failures(self):
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                result, lines = run.run_workload(name, seed=3, seconds=0.2, trace=True, quick=True)
                self.assertEqual(set(result["metrics"]), names("per_layer"))
                # correct also requires self time <= total time for every span
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0)

    def test_layer_counts_repeat_exactly(self):
        runs = [run.run_workload("dense-twist", seed=4, seconds=0.1, trace=True, quick=True)[0]
                for _ in range(2)]
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count/query", "bits")}
            for r in runs
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["chow.conv.fraction_mults"], 0)

    def test_perturbed_route_is_counted_as_failure(self):
        workload = wl.WORKLOADS["small-batch"]
        eng, pool, _ = run.setup(workload, seed=5, quick=True)
        honest = eng.charclass.mather_double_sum

        def perturbed(spec):
            cls = honest(spec)
            coeffs = cls.coeffs[:-1] + (cls.coeffs[-1] + 1,)
            return eng.chow.GradedClass(cls.ambient_dim, coeffs)

        eng.charclass.mather_double_sum = perturbed
        _, verdicts, _ = run.end_to_end(workload, eng, pool, 0.1, setup_s=0.0)
        self.assertGreater(verdicts.failed, 0)
        self.assertIn("mather_cap_eq_double_sum", verdicts.broken)

    def test_inputs_depend_only_on_seed(self):
        for workload in wl.WORKLOADS.values():
            with self.subTest(workload=workload.name):
                self.assertEqual(workload.make_pool(7), workload.make_pool(7))
        dense = wl.WORKLOADS["dense-twist"]
        self.assertNotEqual(dense.make_pool(7), dense.make_pool(8))

    def test_without_engine_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(wl.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(Path(__file__).resolve().parent, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "dense-twist", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120, check=False,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
