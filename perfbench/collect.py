"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--runs 10] [--sets 1] [--trace 0|1]
                                 [--out perfbench/baseline.json]

A set runs every workload in BENCHMARK.json once per seed, seeds 1 to
``--runs``; sets run back to back, every second one with the workloads in
reverse order. For every set, workload and metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the quartile spread
as a share of the median, next to the bound fixed in BENCHMARK.json. For each
later set it prints how much worse each median is than in the first set. With
``--out`` it also writes all of that and every run's raw metrics to a JSON
file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NOTES = {
    "tails": "an op's p90 is reported only where a run has at least 100 samples of it; "
             "percentiles are statistics.quantiles(values, n=100, method='inclusive')",
    "durable_writes": "fsync timings are the measuring machine's, not a storage device's",
    "spread": "(q3 - q1) / median over the runs, quartiles from statistics.quantiles(n=4)",
    "worse_than_set_1": "(median - set 1 median) / set 1 median, sign flipped where "
                        "higher is better, so a positive share is a worsening",
}


def _git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout


def _run_set(spec: dict, order: list, args) -> tuple[dict, dict]:
    """One run per seed of each workload in ``order``: (values, runs) per workload."""
    values, runs = {}, {}
    for workload in order:
        values[workload], runs[workload] = {}, []
        for seed in range(1, args.runs + 1):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-4000:], file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, "wall_s": round(wall, 1), **result,
                                   "report": proc.stdout.strip().splitlines()[:-1]})
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, {result['attempted']} ops",
                  file=sys.stderr)
    return values, runs


def _summarise(values: dict, bounds: dict, label: str) -> dict:
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, series in metrics.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{label} {workload:16s} {name:40s} median {median:12.5g} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.4f}{flag}")
    return summary


def _worsening(first: dict, later: dict, spec: dict) -> dict:
    """How much worse each metric's median is in ``later`` than in ``first``, as a share."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worse = {}
    for workload, metrics in first.items():
        worse[workload] = {}
        for name, stats in metrics.items():
            base, now = stats["median"], later[workload][name]["median"]
            share = (now - base) / abs(base) if base else 0.0
            worse[workload][name] = share if better[name] == "lower" else -share
            bound = bounds.get(name)
            flag = "" if bound is None else \
                f" bound {bound} {'ok' if worse[workload][name] <= bound else 'OVER'}"
            print(f"worse {workload:16s} {name:40s} {worse[workload][name]:+8.4f}{flag}")
    return worse


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    order = [w["name"] for w in spec["workloads"]]
    sets = []
    for index in range(args.sets):
        values, runs = _run_set(spec, order if index % 2 == 0 else order[::-1], args)
        summary = _summarise(values, bounds, f"set {index + 1}")
        sets.append({"workload_order": list(runs), "summary": summary, "runs": runs})
    for later in sets[1:]:
        later["worse_than_set_1"] = _worsening(sets[0]["summary"], later["summary"], spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            workloads = {
                name: {"rsa_bits": cls.rsa_bits, "placement_seed_S": cls.seed_s,
                       "storage_servers": cls.storage_count, "sessions": cls.sessions,
                       "file_bytes": [cls.LO, cls.HI]}
                for name, cls in WORKLOADS.items()}
            json.dump({"git_sha": _git_sha(), "machine": platform.machine(),
                       "cpus": os.cpu_count(), "run_seconds": spec["run_seconds"],
                       "trace": args.trace, "workloads": workloads, "notes": NOTES,
                       "sets": sets}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
