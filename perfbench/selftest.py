"""Self-test of the benchmark at tiny sizes: python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json
declares, with their units; that a tampered reference value makes the
checks fail; and that two seeds give different inputs but the same metric
set.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import unittest
from pathlib import Path

import numpy as np

import run
from spans import MODULES
from workloads import WORKLOADS, CliPipelineSize, ScoreBatchSize

TINY = {
    "score-batch": ScoreBatchSize(fit_rows=2000, dim=16, k=10, batch=256, batches=2, scalar_rows=16),
    "cli-pipeline": CliPipelineSize(fit_rows=2000, dim=8, k=10, csv_rows=200, iterative_queries=20, k2=10,
                                    eval_rows=400, simulate=500, pair_rows=500, pair_dim=4, support=8),
}
REPORTED = {"ops_per_s", "op_p50_ms", "op_p90_ms", "failed_frac", "op_samples", "op_samples_beyond_p90"}
EXTRA = {  # report-only metrics each workload adds to the gated ones
    "score-batch": REPORTED | {"queries_per_s"},
    "cli-pipeline": REPORTED | {f"cli.{c}_p50_ms" for c in
                                ("fit", "classify", "score_iterative", "bound", "shift", "eval", "oracle")},
}
SECONDS = 0.3


def declared(section: str) -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ob = run.import_package()
        (run.ROOT / ".perfbench-work").mkdir(exist_ok=True)
        cls.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench-work"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def run_one(self, name, seed=1, trace=False, tamper=False):
        workdir = Path(tempfile.mkdtemp(dir=self.work))
        return run.run_workload(self.ob, name, seed, SECONDS, trace, workdir, size=TINY[name], tamper=tamper)

    def assert_units(self, metrics, want):
        self.assertEqual(set(metrics), set(want))
        for key, unit in want.items():
            self.assertEqual(metrics[key]["unit"], unit, key)
            self.assertIsInstance(metrics[key]["value"], float, key)

    def test_end_to_end_metrics_and_units(self):
        gated = declared("end_to_end")
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, report = self.run_one(name)
                self.assertTrue(result["correct"], report["failures"])
                self.assertEqual(result["failed"], 0)
                self.assert_units(result["metrics"], gated)
                self.assertEqual(set(report["metrics"]) - set(gated), EXTRA[name])
                self.assertEqual(report["metrics"]["failed_frac"]["value"], 0.0)
                self.assertEqual(report["provenance"]["seed"], 1)

    def test_traced_run_emits_every_layer_metric(self):
        layers = declared("per_layer")
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, report = self.run_one(name, trace=True)
                self.assertTrue(result["correct"], report["failures"])
                self.assert_units(result["metrics"], layers)

    def test_tracing_restores_every_original(self):
        ob = self.ob
        owners = [ob] + [getattr(ob, m) for m in MODULES] + [ob.core.SampleSet, ob.classifier.FittedScorer]
        before = [dict(vars(owner)) for owner in owners]
        self.run_one("cli-pipeline", trace=True)
        for owner, names in zip(owners, before):
            after = vars(owner)
            for key, value in names.items():
                self.assertIs(after[key], value, f"{owner.__name__}.{key}")

    def test_tampered_reference_fails_the_checks(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, report = self.run_one(name, tamper=True)
                self.assertFalse(result["correct"])
                self.assertGreater(report["metrics"]["failed_frac"]["value"], 0.0)

    def test_seeds_change_inputs_not_metric_set(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                a = cls(self.ob, 1, str(self.work), size=TINY[name])
                b = cls(self.ob, 2, str(self.work), size=TINY[name])
                again = cls(self.ob, 1, str(self.work), size=TINY[name])
                field = {"score-batch": "fit_data", "cli-pipeline": "fit_big"}[name]
                first, second, third = (np.asarray(getattr(w, field)) for w in (a, b, again))
                self.assertFalse(np.array_equal(first, second))
                self.assertTrue(np.array_equal(first, third))
                r1, _ = self.run_one(name, seed=1)
                r2, _ = self.run_one(name, seed=2)
                self.assertEqual(set(r1["metrics"]), set(r2["metrics"]))


if __name__ == "__main__":
    unittest.main()
