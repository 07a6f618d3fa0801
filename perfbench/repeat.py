"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads paper ladder --seeds 1-10 \\
        [--traced-seeds 1-2] [--label TEXT] [--out FILE.json]

For each workload, runs ``run.py`` once per seed untraced, then once per
traced seed with ``--trace 1``, each for BENCHMARK.json's run_seconds, and
reports, per metric, the median
and quartiles of the per-run values (``statistics.quantiles(n=4)``) and their
spread, (q3 - q1) / median.  For end-to-end metrics it also shows the bound
from BENCHMARK.json and whether the spread is within a third of it.  With
--out the runs and the summary are written as JSON, the format of the
``BENCH_*.json`` files of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        entry = {
            "unit": results[0]["metrics"][name]["unit"],
            "n": len(values),
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["steady"] = entry["spread"] is not None and entry["spread"] < bounds[name] / 3
        summary[name] = entry
    return summary


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--label", default="", help="e.g. the commit measured")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"label": args.label, "machine": machine(), "seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        entry = report["workloads"][workload] = {}
        for mode, seeds in (("untraced", args.seeds), ("traced", args.traced_seeds)):
            if not seeds:
                continue
            runs = []
            for seed in parse_seeds(seeds):
                result = run_once(workload, seed, seconds, int(mode == "traced"))
                runs.append({"seed": seed, **result})
                print(f"{workload} {mode} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
            summary = summarise(runs, bounds if mode == "untraced" else {})
            entry[mode] = {"summary": summary, "runs": runs}
            print(f"== {workload} {mode} ({len(runs)} runs, failed jobs "
                  f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)})")
            for name, e in summary.items():
                spread = "-" if e["spread"] is None else f"{e['spread']:.4f}"
                bound = f" bound {e['bound']} {'ok' if e['steady'] else 'WIDE'}" if "bound" in e else ""
                print(f"  {name:28s} median {e['median']:14.6f} {e['unit']:6s} "
                      f"q1 {e['q1']:.6g} q3 {e['q3']:.6g} spread {spread}{bound}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
