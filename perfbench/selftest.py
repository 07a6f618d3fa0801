"""Self-tests of the benchmark (not of fsind).

    python3 perfbench/selftest.py

A reduced-size smoke run of every workload, untraced and traced; the metric
names and units of BENCHMARK.json against what the runner reports; and
corrupted job outputs, which must be caught by the checks and raise the
fraction of failed jobs above 0.
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OUT = run.OUT / "selftest"


def reduced_jobs(workload: str) -> list[workloads.Job]:
    """A few cheap jobs of each kind the workload runs."""
    inputs = OUT / "inputs"
    jobs = workloads.make_jobs(workload, 7, inputs)
    if workload == "paper":
        keep = ("verify-tables:json", "rigidity:ng3-z3", "indicators:ng3-z3", "gauss:0")
        return [job for job in jobs if job.name.startswith(keep)] + [workloads._agl_job(27, 3)]
    refs = workloads.load("ladder")["z51"]
    spec = workloads.ladder_spec(random.Random(7), workloads.LADDER_FAMILIES[2])
    z51 = workloads._indicators_job("indicators:z51", inputs, spec,
                                    refs["vectors"][workloads.coeff_key(spec)],
                                    refs["period"], 3, "center")
    return [job for job in jobs if job.name == "indicators:z3xz7"] + [z51]


def truncate(text: str) -> str:
    return text[: len(text) // 2]


class CorruptingRunner(run.Runner):
    """Hands every job a truncated stdout."""

    def spawn(self, argv) -> dict:
        sample = super().spawn(argv)
        sample["stdout"] = truncate(sample["stdout"])
        return sample


def new_runner(cls=run.Runner) -> run.Runner:
    OUT.mkdir(parents=True, exist_ok=True)
    return cls(OUT, time.perf_counter())


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        pattern = re.compile(r"[A-Za-z0-9_.-]+")
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertTrue(pattern.fullmatch(metric["name"]), metric["name"])
            self.assertTrue(metric["unit"], metric["name"])

    def test_runner_reports_the_declared_metrics(self):
        declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)
        layers = {m["name"]: m["unit"] for m in run.LAYERS}
        self.assertEqual({m["name"]: m["unit"] for m in BENCH["per_layer"]}, layers)


class Smoke(unittest.TestCase):
    def smoke(self, workload: str):
        jobs = reduced_jobs(workload)
        samples, attempted, failed, errors = run.run_loop(new_runner(), jobs, 0, traced=False)
        self.assertEqual((attempted, failed, errors), (len(jobs), 0, []))
        e2e = run.end_to_end(samples, jobs, [(0.3, 0.4)])
        self.assertEqual(set(e2e), set(run.END_TO_END_UNITS))
        self.assertTrue(all(v > 0 for v in e2e.values()), e2e)

        listed = jobs + workloads.probe_jobs(OUT / "inputs")
        samples, attempted, failed, errors = run.run_loop(new_runner(), listed, 0, traced=True)
        self.assertEqual((attempted, failed, errors), (2 * len(listed), 0, []))
        layers, breakdown = run.per_layer(samples, listed, jobs)
        self.assertEqual(set(layers), {m["name"] for m in run.LAYERS})
        for metric in run.LAYERS:
            if metric["kind"] != "overhead":
                self.assertGreater(layers[metric["name"]], 0, metric["name"])
        self.assertTrue(breakdown["center.build_s"])

    def test_paper(self):
        self.smoke("paper")

    def test_ladder(self):
        self.smoke("ladder")


class Corruption(unittest.TestCase):
    def test_truncated_outputs_count_as_failed(self):
        jobs = reduced_jobs("paper")
        _, attempted, failed, _ = run.run_loop(new_runner(CorruptingRunner), jobs, 0, traced=False)
        self.assertEqual(attempted, len(jobs))
        self.assertEqual(failed, len(jobs))  # fail_frac = 1

    def test_wrong_values_are_caught(self):
        agl = "# AGL_1(F_3): order 6, characteristic 3\nk nu_bruteforce nu_closed deviation\n"
        self.assertIsNone(checks.agl(3, 1, 0, agl + "1 0 0 0\n"))
        self.assertIsNotNone(checks.agl(3, 1, 0, agl + "1 0.5 0 0.5\n"))
        self.assertIsNotNone(checks.gauss([3], [1], 0, "0 -1\nphase: 3/4\n"))
        self.assertIsNone(checks.gauss([3], [1], 0, "0 1\nphase: 1/4\n"))
        ref = [[0.0, 0.0], [1.0, 0.5]]
        good = {"period": 2, "values": [{"k": 1, "re": "0", "im": "0", "deviation": "0"},
                                         {"k": 2, "re": "1", "im": "0.5", "deviation": "0"}]}
        self.assertIsNone(checks.indicators(ref, 2, 2, True, 0, json.dumps(good)))
        good["values"][1]["im"] = "-0.5"
        self.assertIsNotNone(checks.indicators(ref, 2, 2, True, 0, json.dumps(good)))

    def test_verify_tables_flags_new_and_missing_failures(self):
        keys = [["ng3", "1", "3"], ["ng3", "2", "3"], ["ng7", "1", "7"]]

        def csv_out(passes):
            lines = ["table_id,row_id,family,group,form,k,expected_re,expected_im,computed_re,"
                     "computed_im,deviation,calibrated,pass"]
            lines += [f"{t},{r},NG2,Z3,x,{k},0,0,0,0,0,no,{p}" for (t, r, k), p in zip(keys, passes)]
            return "\n".join(lines) + "\n"

        self.assertIsNone(checks.verify_tables("csv", keys, 1, csv_out(["false", "false", "true"])))
        # a new failure, a masked anomaly, and the wrong exit code
        self.assertIsNotNone(checks.verify_tables("csv", keys, 1, csv_out(["false", "false", "false"])))
        self.assertIsNotNone(checks.verify_tables("csv", keys, 1, csv_out(["false", "true", "true"])))
        self.assertIsNotNone(checks.verify_tables("csv", keys, 0, csv_out(["false", "false", "true"])))


if __name__ == "__main__":
    unittest.main()
