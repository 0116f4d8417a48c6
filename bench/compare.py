#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit (A) and a change (B).

Usage::

    python bench/compare.py --parent A1.json A2.json ... --change B1.json B2.json ...

Each file is a ``run.py --out`` report. Files pair up in the order given:
run them alternately (A1, B1, B2, A2, ...) with the same seeds and
``--seconds``. For every workload and metric this prints each side's
median and quartiles, the share of pairs the change wins (ties count for
neither) and a verdict:

* ``improved``   -- the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's own quartile spread;
* ``regressed``  -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's runs spread wider than the bound, and not
  every run of the change reads better than every run of the parent;
* ``unchanged``  -- otherwise.

Per-layer metrics have no bound; for them ``regressed`` uses the same
rule as ``improved`` in the other direction. A workload row also flags a
``sim_digest`` that differs between paired runs of the same seed, and
any failed operation. The exit code is 1 when anything regressed or was
flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: List[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def load_runs(paths: List[Path]) -> List[dict]:
    return [json.loads(path.read_text()) for path in paths]


def metric_values(runs: List[dict], workload: str, metric: str) -> List[Optional[float]]:
    """The metric of every run, ``None`` where the run did not report it."""
    out = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        out.append(None if entry is None else entry["value"])
    return out


def verdict(parent_runs: List[Optional[float]], change_runs: List[Optional[float]],
            higher: bool, bound: Optional[float]) -> Dict[str, object]:
    sign = 1.0 if higher else -1.0
    pairs = [(a, b) for a, b in zip(parent_runs, change_runs)
             if a is not None and b is not None]
    parent = [a for a in parent_runs if a is not None]
    change = [b for b in change_runs if b is not None]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _c_q1, c_med, _c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)  # > 0: the change is better
    iqr = p_q3 - p_q1
    all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        result = "improved"
    elif bound is not None and -gain > bound * abs(p_med):
        result = "regressed"
    elif bound is None and pairs and losses >= 0.9 * len(pairs) and -gain > iqr:
        result = "regressed"
    elif bound is not None and spread(parent) > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {"parent": quartiles(parent), "change": quartiles(change),
            "wins": wins / len(pairs) if pairs else 0.0, "verdict": result}


def workload_flags(parent: List[dict], change: List[dict], workload: str) -> List[str]:
    flags = []
    for a, b in zip(parent, change):
        ra, rb = a["workloads"].get(workload), b["workloads"].get(workload)
        if ra is None or rb is None:
            continue
        if a["seed"] == b["seed"] and ra.get("sim_digest") != rb.get("sim_digest"):
            flags.append(f"sim_digest differs at seed {a['seed']}")
    for side, runs in (("parent", parent), ("change", change)):
        reports = [r["workloads"][workload] for r in runs if workload in r["workloads"]]
        failed = sum(report["failed"] for report in reports)
        attempted = sum(report["attempted"] for report in reports)
        if failed:
            flags.append(f"{side} failed {failed}/{attempted} ops")
    return flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = sorted({w for run in parent + change for w in run["workloads"]})

    bad = False
    print(f"{'workload':<14} {'metric':<32} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    for workload in workloads:
        verdicts = []
        for name, meta in declared.items():
            a = metric_values(parent, workload, name)
            b = metric_values(change, workload, name)
            if all(x is None for x in a) or all(x is None for x in b):
                continue
            row = verdict(a, b, meta["better"] == "higher", meta.get("bound"))
            verdicts.append((name, row["verdict"]))
            (pq1, pm, pq3), (cq1, cm, cq3) = row["parent"], row["change"]
            print(f"{workload:<14} {name:<32} {pm:>12.5g} [{pq1:.4g}, {pq3:.4g}]"
                  f"{'':>2} {cm:>12.5g} [{cq1:.4g}, {cq3:.4g}] {row['wins']:>5.0%}  "
                  f"{row['verdict']}")
        flags = workload_flags(parent, change, workload)
        counts = {v: sum(1 for _n, x in verdicts if x == v)
                  for v in ("improved", "unchanged", "unresolved", "regressed")}
        regressed = [n for n, v in verdicts if v == "regressed"]
        bad = bad or bool(regressed or flags)
        summary = ", ".join(f"{n} {v}" for v, n in counts.items() if n)
        print(f"{workload:<14} SUMMARY: {summary}"
              + (f"; regressed: {', '.join(regressed)}" if regressed else "")
              + (f"; FLAGS: {'; '.join(flags)}" if flags else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
