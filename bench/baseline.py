#!/usr/bin/env python3
"""Record the benchmark's baseline: two untraced run sets and one traced run.

Usage (from the repository root; about 40 minutes)::

    python bench/baseline.py [--runs 10] [--seed 1000] [--out bench/baseline.json]

Set A runs every workload with seeds ``S .. S+runs-1`` and set B with
``S+100 ..``; each run is one ``run.py --workload W --seed N`` in a fresh
process. The traced run uses seed ``S``. For every workload and
end-to-end metric the output records each set's median, quartiles and
spread (quartile distance over median), also for the timings as measured
before the host-speed correction, the metric's bound from
``BENCHMARK.json``, whether every spread stayed under a third of the
bound, and how far set B's median moved from set A's, in the
metric's worse direction, and the wall time of each kind of run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from compare import quartiles, spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(work: Path, workload: str, seed: int, trace: int, walls: list) -> dict:
    out = work / f"{workload}-{seed}-{trace}.json"
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--trace", str(trace), "--out", str(out)],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
    walls.append(time.perf_counter() - start)
    report = json.loads(out.read_text())["workloads"][workload]
    print(f"{workload} seed {seed} trace {trace}: correct={report['correct']}", flush=True)
    return report


def summary(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    work = ROOT / ".bench_work" / f"baseline-{os.getpid()}"
    work.mkdir(parents=True)
    sets = {"A": args.seed, "B": args.seed + 100}
    doc = {
        "host": f"{platform.processor() or platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}",
        "run_seconds": spec["run_seconds"],
        "runs_per_set": args.runs,
        "sets": {},
        "traced": {},
        "checks": {},
    }
    walls = {0: [], 1: []}
    try:
        values = {}
        for label, first in sets.items():
            seeds = list(range(first, first + args.runs))
            doc["sets"][label] = {"seeds": seeds, "workloads": {}}
            for name in WORKLOADS:
                reports = [run(work, name, seed, 0, walls[0]) for seed in seeds]
                failed = sum(r["failed"] for r in reports)
                per_metric = {m: [r["metrics"][m]["value"] for r in reports if r["metrics"]]
                              for m in e2e}
                values[label, name] = per_metric
                doc["sets"][label]["workloads"][name] = {
                    "failed": failed,
                    "sim_digests": [r["sim_digest"] for r in reports],
                    "metrics": {m: summary(v) for m, v in per_metric.items() if v},
                    "as_measured": {
                        m: summary([r["as_measured"][m] for r in reports if r["metrics"]])
                        for m in e2e if all(r.get("as_measured") for r in reports)
                    },
                }
        for name in WORKLOADS:
            report = run(work, name, args.seed, 1, walls[1])
            doc["traced"][name] = {"correct": report["correct"],
                                   "metrics": {m: e["value"]
                                               for m, e in report["metrics"].items()}}
            checks = {}
            for metric, meta in e2e.items():
                a, b = values["A", name][metric], values["B", name][metric]
                sign = 1.0 if meta["better"] == "lower" else -1.0
                drift = sign * (quartiles(b)[1] - quartiles(a)[1]) / quartiles(a)[1]
                widest = max(spread(a), spread(b))
                checks[metric] = {
                    "bound": meta["bound"],
                    "max_spread": widest,
                    "spread_under_third_of_bound": widest < meta["bound"] / 3,
                    "b_worse_than_a_by": drift,
                    "drift_within_bound": drift <= meta["bound"],
                }
            doc["checks"][name] = checks
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    doc["run_wall_s"] = {
        "untraced": {"median": quartiles(walls[0])[1], "max": max(walls[0])},
        "traced": {"median": quartiles(walls[1])[1], "max": max(walls[1])},
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
