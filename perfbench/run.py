"""fsind benchmark: end-to-end CLI jobs, checked, with per-layer timings on request.

    python3 perfbench/run.py --workload paper|ladder --seed 1 --seconds 45 --trace 0

Run it from anywhere inside a source checkout; the program under test is
``src/fsind`` of the checkout that holds this file, run as a user runs it:
one fresh ``python -m fsind <subcommand>`` process per job.

Load model: one client in a closed loop.  The jobs of the seed's list
(workloads.py) run one at a time, each waited for before the next starts,
cycling through the list until ``--seconds`` have passed; the first pass
always completes.  Every job's exit code and stdout are checked (checks.py)
and a job that fails either counts in ``failed``.

Before each job, and once after the last, the runner starts a fixed
reference process, REFERENCE_CODE (interpreter start, ``import numpy`` and a
fixed pure-Python loop; no fsind code).  On a shared 2-vCPU virtual machine
raw times drifted by 10-30 % between runs minutes apart; a job's wall over
the mean wall of the references on either side of it cancels most of that
drift, so the end-to-end times are in units of the reference run ("ref").
With ``--trace 0`` the last stdout line reports:

  setup_s      median wall of a fresh ``python -c "import fsind.cli"`` in s
               (SETUP_RUNS samples, half before and half after the jobs,
               after one warm-up, each between two reference runs)
  setup_ref    median over the same samples of wall / mean wall of the two
               reference runs around it
  wall_ref     one pass: sum over jobs of each job's median wall/ref
  job_p50_ref  median over jobs of each job's median wall/ref
  job_max_ref  largest per-job median wall/ref
  nu_per_ref   indicator values the pass delivers / wall_ref
  cpu_ref      one pass: sum over jobs of each job's median user+sys CPU over
               the reference's user+sys CPU (numpy's BLAS threads spin on
               the second vCPU by an amount that follows the host's load)
  peak_rss_mb  largest max-RSS of any job process
  fail_frac    is failed / attempted in the result line

The lines above it give the same figures in seconds, per job too, with each
figure's sample count.

With ``--trace 1`` each job runs twice back to back through tracejob.py,
once with tracing off and once on, with a reference run before each; which
of the two goes first alternates from job to job and from pass to pass.  A
fixed set of smallest-size probe jobs joins the list so every layer is
reached.  The per-layer metrics of layers.json are reported, plus
``trace.overhead_s``: summed over the workload's own jobs, the median over
passes of traced minus untraced job wall, each divided by its references,
then multiplied by the run's median reference wall to read in seconds.  All
spans are written to ``.bench_out/<workload>/spans.jsonl`` and the
per-layer metrics with their size tags (|G|, |G'|, |H|, center rank,
period N, q) to ``.bench_out/<workload>/summary.json``.

Exit code 0 with a result line, or 2 without one when the checkout has no
``src/fsind`` or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRACEJOB = HERE / "tracejob.py"

SETUP_RUNS = 10
REFERENCE_CODE = "import numpy\ns = 0\nfor i in range(700_000):\n    s += i * i\n"
# Stop starting jobs this long after start, so a run always ends within 180 s.
HARD_LIMIT_S = 150.0
KILL_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_ref": "ref", "setup_s": "s", "setup_ref": "ref", "job_p50_ref": "ref", "job_max_ref": "ref",
    "nu_per_ref": "1/ref", "cpu_ref": "ref", "peak_rss_mb": "MB",
}
LAYERS = json.loads((HERE / "layers.json").read_text())["metrics"]


class Runner:
    """Starts one job process at a time and measures it."""

    def __init__(self, out: Path, start: float):
        self.out = out
        self.start = start
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def spawn(self, argv) -> dict:
        """Run argv to completion; wall, CPU, max RSS, exit code and stdout.

        ``argv`` may be a function of the spawn time, for jobs that time
        their own start-up against it.
        """
        stdout_path, stderr_path = self.out / "stdout", self.out / "stderr"
        timeout = max(1.0, KILL_LIMIT_S - (time.perf_counter() - self.start))
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            if callable(argv):
                argv = argv(t0)
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "rc": proc.returncode,
            "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
        }

    def reference(self) -> tuple[float, float]:
        """Wall and CPU time of one run of the fixed reference process."""
        sample = self.spawn([sys.executable, "-c", REFERENCE_CODE])
        if sample["rc"] != 0:
            raise RuntimeError("the reference process failed")
        return sample["wall"], sample["cpu"]

    def run_job(self, job: workloads.Job, mode: str) -> dict:
        """Run one job after a reference run.  Mode "user" runs ``python -m
        fsind``; "traced" runs the CLI through tracejob.py and "untraced"
        through tracejob.py with tracing off, so the two differ by the
        tracer alone."""
        ref_before = self.reference()
        traced = mode == "traced"
        spans_path = self.out / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            sample = self.spawn(lambda t0: [sys.executable, str(TRACEJOB), str(spans_path),
                                            repr(t0), "--", *job.argv])
        elif mode == "untraced":
            sample = self.spawn([sys.executable, str(TRACEJOB), "-", "0", "--", *job.argv])
        else:
            sample = self.spawn([sys.executable, "-m", "fsind", *job.argv])
        sample["ref_before"] = ref_before
        try:
            sample["error"] = job.check(sample["rc"], sample.pop("stdout"))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            sample["error"] = f"unreadable output: {exc!r}"
        if traced and sample["error"] is None:
            try:
                sample["trace"] = json.loads(spans_path.read_text())
            except (OSError, ValueError) as exc:
                sample["error"] = f"no spans: {exc!r}"
        return sample


def measure_setup(runner: Runner, runs: int) -> list[tuple[float, float]]:
    """Walls of ``runs`` fresh ``import fsind.cli`` processes, each with the
    mean wall of the reference runs just before and just after it."""
    argv = [sys.executable, "-c", "import fsind.cli"]
    walls, refs = [], [runner.reference()[0]]
    for _ in range(runs):
        sample = runner.spawn(argv)
        if sample["rc"] != 0:
            raise RuntimeError("import fsind.cli failed")
        walls.append(sample["wall"])
        refs.append(runner.reference()[0])
    return [(wall, (a + b) / 2) for wall, a, b in zip(walls, refs, refs[1:])]


def run_loop(runner: Runner, jobs, seconds: float, traced: bool):
    """Cycle through jobs until ``seconds`` pass; returns samples and failures.

    Each sample's ``ref`` and ``ref_cpu`` are the mean wall and CPU time of
    the reference runs just before and just after it.  Traced, each job runs
    through tracejob.py untraced and traced, kept under "plain" and "traced";
    the order alternates by job and by pass.
    """
    samples = defaultdict(lambda: {"plain": [], "traced": []})
    ordered = []
    attempted = failed = 0
    errors = []
    loop_start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if i >= len(jobs) and now - loop_start >= seconds:
            break
        if now - runner.start > HARD_LIMIT_S:
            missing = max(0, len(jobs) - i)  # jobs of the first pass never run
            attempted += missing
            failed += missing
            if missing:
                errors.append(f"{missing} jobs not run within {HARD_LIMIT_S:.0f} s")
            break
        job = jobs[i % len(jobs)]
        modes = ("untraced", "traced") if traced else ("user",)
        if (i + i // len(jobs)) % 2:
            modes = modes[::-1]
        for mode in modes:
            attempted += 1
            sample = runner.run_job(job, mode)
            if sample["error"] is not None:
                failed += 1
                errors.append(f"{job.name}: {sample['error']}")
            samples[job.name]["traced" if mode == "traced" else "plain"].append(sample)
            ordered.append(sample)
        i += 1
    if ordered:
        after = [s["ref_before"] for s in ordered[1:]] + [runner.reference()]
        for sample, ref_after in zip(ordered, after):
            sample["ref"], sample["ref_cpu"] = (
                (a + b) / 2 for a, b in zip(sample["ref_before"], ref_after)
            )
    return samples, attempted, failed, errors


def _job_medians(samples, jobs, mode: str, value) -> list[float]:
    return [statistics.median(value(s) for s in samples[job.name][mode]) for job in jobs]


def end_to_end(samples, jobs, setup: list[tuple[float, float]], normalise: bool = True) -> dict:
    """The end-to-end metrics; with ``normalise``, job wall and CPU times are
    divided by the wall and CPU time of the reference runs around the job.
    ``setup`` holds (wall, reference wall) pairs of measure_setup."""
    wall_unit, cpu_unit = ("ref", "ref_cpu") if normalise else (None, None)

    def ratio(key: str, unit: str | None):
        return lambda s: s[key] / s[unit] if unit else s[key]

    walls = _job_medians(samples, jobs, "plain", ratio("wall", wall_unit))
    wall = sum(walls)
    return {
        "wall_ref": wall,
        "setup_s": statistics.median(wall for wall, _ in setup),
        "setup_ref": statistics.median(wall / ref for wall, ref in setup),
        "job_p50_ref": statistics.median(walls),
        "job_max_ref": max(walls),
        "nu_per_ref": sum(job.nu for job in jobs) / wall,
        "cpu_ref": sum(_job_medians(samples, jobs, "plain", ratio("cpu", cpu_unit))),
        "peak_rss_mb": max(s["rss_mb"] for job in jobs for s in samples[job.name]["plain"]),
    }


def span_self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def layer_value(metric: dict, trace: dict, self_s: list[float]) -> float:
    kind, names = metric["kind"], metric["spans"]
    if kind == "counter":
        return sum(trace["counters"].get(name, 0) for name in names)
    picked = [(s, sizes or {}) for s, (name, *_, sizes) in zip(self_s, trace["spans"]) if name in names]
    if kind == "self_s":
        return sum(s for s, _ in picked)
    if kind == "count":
        return len(picked)
    tags = [sizes[metric["size"]] for _, sizes in picked]
    return sum(tags) if kind == "sum" else max(tags, default=0)


def per_layer(samples, jobs, workload_jobs) -> tuple[dict, dict]:
    """Per-layer metrics and, for each, its calls and self time per size tags.

    The breakdown covers the first traced run of each job, i.e. one pass.
    """
    layers = [m for m in LAYERS if m["kind"] != "overhead"]
    per_job = {job.name: defaultdict(list) for job in jobs}
    breakdown: dict[str, dict] = {m["name"]: {} for m in layers}
    for job in jobs:
        traced = [s for s in samples[job.name]["traced"] if "trace" in s]
        for n, sample in enumerate(traced):
            trace = sample["trace"]
            self_s = span_self_times(trace["spans"])
            for metric in layers:
                per_job[job.name][metric["name"]].append(layer_value(metric, trace, self_s))
                if n == 0:
                    _add_breakdown(breakdown[metric["name"]], metric, trace, self_s)
    values = {}
    for metric in layers:
        name = metric["name"]
        medians = [statistics.median(per_job[job.name][name]) for job in jobs if per_job[job.name][name]]
        values[name] = max(medians, default=0) if metric["kind"] == "max" else sum(medians)
    values["trace.overhead_s"] = trace_overhead(samples, workload_jobs)
    return values, breakdown


def trace_overhead(samples, jobs) -> float:
    """Traced minus untraced wall of each pass's back-to-back pair, in units
    of the references around each run; the median over passes summed over
    jobs, times the median reference wall of the pairs, in seconds."""
    per_job, refs = [], []
    for job in jobs:
        pairs = list(zip(samples[job.name]["plain"], samples[job.name]["traced"]))
        per_job.append(statistics.median(t["wall"] / t["ref"] - p["wall"] / p["ref"] for p, t in pairs))
        refs += [s["ref"] for pair in pairs for s in pair]
    return sum(per_job) * statistics.median(refs)


def _add_breakdown(table: dict, metric: dict, trace: dict, self_s: list[float]) -> None:
    for s, (name, *_, sizes) in zip(self_s, trace["spans"]):
        if name in metric["spans"]:
            entry = table.setdefault(json.dumps(sizes or {}, sort_keys=True), {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "fsind" / "__init__.py").is_file():
        print(f"error: no fsind sources under {SRC}", file=sys.stderr)
        return 2
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(out, start)
    jobs = workloads.make_jobs(args.workload, args.seed, out / "inputs")
    traced = bool(args.trace)
    listed = jobs + workloads.probe_jobs(out / "inputs") if traced else jobs
    runner.spawn([sys.executable, "-c", "import fsind.cli"])  # warm-up: writes bytecode caches
    setup = [] if traced else measure_setup(runner, SETUP_RUNS // 2)
    samples, attempted, failed, errors = run_loop(runner, listed, args.seconds, traced)
    setup += [] if traced else measure_setup(runner, SETUP_RUNS - SETUP_RUNS // 2)
    for line in errors[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    runs = {job.name: len(samples[job.name]["plain"]) for job in listed}
    if any(n == 0 for n in runs.values()):
        return _report({}, attempted, failed)
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs, {sum(runs.values())} job runs "
          f"({min(runs.values())}-{max(runs.values())} per job), fail_frac {failed / attempted:.4f}")
    for job, wall in zip(listed, _job_medians(samples, listed, "plain", lambda s: s["wall"])):
        sizes = ",".join(f"{k}={v}" for k, v in job.sizes.items())
        print(f"# job {job.name:36s} {sizes:28s} runs {runs[job.name]}  median wall {wall:.4f} s")
    if traced:
        metrics, breakdown = per_layer(samples, listed, jobs)
        units = {m["name"]: m["unit"] for m in LAYERS}
        summary = {
            name: {"value": value, "unit": units[name], "by_sizes": breakdown.get(name, {})}
            for name, value in metrics.items()
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        with open(out / "spans.jsonl", "w", encoding="utf-8") as handle:
            for job in listed:
                traced_runs = [s for s in samples[job.name]["traced"] if "trace" in s]
                for n, sample in enumerate(traced_runs):
                    handle.write(json.dumps({"job": job.name, "run": n, **sample["trace"]}) + "\n")
    else:
        metrics = end_to_end(samples, jobs, setup)
        units = END_TO_END_UNITS
        refs = [s["ref"] for job in jobs for s in samples[job.name]["plain"]]
        print(f"# setup_s, setup_ref: median of {len(setup)}; reference wall: median "
              f"{statistics.median(refs):.4f} s of {len(refs)}; in seconds (unit 1):")
        for name, value in end_to_end(samples, jobs, setup, normalise=False).items():
            if name != "setup_ref":
                print(f"#   {name.replace('_ref', '_s'):26s} {value:14.6f}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    return _report({n: {"value": v, "unit": units[n]} for n, v in metrics.items()}, attempted, failed)


def _report(metrics: dict, attempted: int, failed: int) -> int:
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
