#!/usr/bin/env python3
"""The repository benchmark: every workload, every metric, checked results.

Usage (from the repository root)::

    python bench/run.py [--workload NAME] [--seed S] [--seconds R]
                        [--trace [0|1]] [--out FILE] [--smoke]

Each workload runs in fresh child processes (``measure.py``). Without
``--trace`` the command prints the end-to-end metrics; with ``--trace``
it instead runs the workload three times -- untraced, with span
wrappers, and under cProfile -- and prints the per-layer metrics.
End-to-end timings are corrected for the shared host's current speed
(see ``corrected``); the report also keeps them as measured. Every
simulated result is checked: model invariants for any seed, digests
pinned in ``pins.json`` for the pinned seeds, and a replay of the first
item in this process. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when any check failed. See ``README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import pins as pinned  # noqa: E402
from compare import quartiles  # noqa: E402
from measure import REF_SECONDS, Server, child_env, reference_seconds, server_argv  # noqa: E402
from spans import PROFILE_NAMES, totals  # noqa: E402
from workloads import (  # noqa: E402
    JOB_WORKERS,
    WORKLOADS,
    Workload,
    check_cell,
    item_digest,
    result_dict,
    run_digest,
)

#: Fresh processes ``setup_s`` takes the median of.
SETUP_PROBES = 5
#: A measured phase that has not finished after this long is killed.
PHASE_TIMEOUT = 150.0

END_TO_END = {
    "setup_s": "s",
    "cells_per_min": "cells/min",
    "mem_ops_per_s": "1/s",
    "latency_s.p50": "s",
    "latency_s.p75": "s",
    "peak_rss_mb": "MB",
}

#: Span name -> per-cell median metric.
SIM_SPANS = {
    "workloads.generate_trace": "workloads.generate_trace_s",
    "sim.system.build": "sim.system.build_s",
    "osmodel.attach": "osmodel.attach_s",
    "sim.runner.collect": "sim.runner.collect_s",
}
#: Metric -> (RunResult field, unit), summed over the first ``min_items``.
COUNTS = {
    "accel.mem_ops": ("mem_ops", "count"),
    "accel.blocked_ops": ("blocked_ops", "count"),
    "mem.cache.l1_hits": ("l1_hits", "count"),
    "mem.cache.l1_misses": ("l1_misses", "count"),
    "mem.cache.l2_hits": ("l2_hits", "count"),
    "mem.cache.l2_misses": ("l2_misses", "count"),
    "mem.cache.l2_writebacks": ("l2_writebacks", "count"),
    "vm.ats_walks": ("ats_walks", "count"),
    "iommu.ats_translations": ("ats_translations", "count"),
    "core.border_checks": ("border_checks", "count"),
    "core.pt_accesses": ("border_pt_accesses", "count"),
    "core.bcc_hits": ("bcc_hits", "count"),
    "core.bcc_misses": ("bcc_misses", "count"),
    "mem.dram.bytes": ("dram_bytes", "bytes"),
    "osmodel.downgrades": ("downgrades", "count"),
    "sim.gpu_cycles": ("gpu_cycles", "cycles"),
}
#: Host span -> its share of the traced service run's wall time.
HOST_SHARES = {
    "service.wire": "service.wire_share",
    "service.admission": "service.admission_share",
    "sweep.run_sweep": "sweep.run_sweep_share",
    "journal.open": "journal.open_share",
    "journal.record": "journal.record_share",
    "experiments.cache_store": "experiments.cache_store_share",
}
#: Job phase (from the job record) -> its share of the untraced wall time.
JOB_SHARES = {
    "submit": "service.submit_share",
    "queue": "service.queue_share",
    "exec": "service.exec_share",
    "notify": "service.notify_share",
}
SERVICE_OTHER = {
    "supervisor.pool_overhead_share": "share",
    "service.resubmit_ratio": "ratio",
    "service.http_errors": "count",
    "supervisor.retries": "count",
    "supervisor.pool_rebuilds": "count",
    "sweep.cache_hit_rate": "ratio",
    "sweep.resumed_cells": "count",
}


def per_layer_units() -> Dict[str, str]:
    units = {f"profile.{name}": "share" for name in PROFILE_NAMES}
    units["profile.closure"] = "share"
    units.update({metric: "s" for metric in SIM_SPANS.values()})
    units["sim.simulate_s"] = "s"
    units["host_ns_per_mem_op"] = "ns"
    units["trace_overhead"] = "ratio"
    units["host.speed_factor"] = "ratio"
    units.update({metric: unit for metric, (_field, unit) in COUNTS.items()})
    units["mem.cache.l1_hit_ratio"] = "ratio"
    units["core.bcc_hit_ratio"] = "ratio"
    units.update({metric: "share" for metric in JOB_SHARES.values()})
    units.update({metric: "share" for metric in HOST_SHARES.values()})
    units.update(SERVICE_OTHER)
    return units


class PhaseError(RuntimeError):
    pass


class Verdict:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- running phases -------------------------------------------------------------


def run_phase(wl: Workload, args, work: Path, phase: str, seconds: float,
              min_items: int, max_items: int = 10**9) -> dict:
    """One ``measure.py run`` in a fresh process group; its output file."""
    phase_dir = work / phase
    phase_dir.mkdir(parents=True)
    out_path = phase_dir / "out.json"
    cmd = [sys.executable, str(BENCH / "measure.py"), "run", wl.name,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--min-items", str(min_items), "--max-items", str(max_items),
           "--phase", phase, "--work", str(phase_dir), "--out", str(out_path)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, env=child_env(phase_dir), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _out, err = proc.communicate(timeout=PHASE_TIMEOUT)
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the server and its pool too
        except ProcessLookupError:
            pass  # the whole group already exited
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise PhaseError(f"{phase} phase still running after {PHASE_TIMEOUT:.0f}s")
        raise
    if proc.returncode != 0 or not out_path.exists():
        raise PhaseError(f"{phase} phase exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out_path.read_text())


def measure_setup(wl: Workload, work: Path, probes: int) -> List[dict]:
    """Seconds from spawn until a fresh process is ready to simulate.

    One more probe runs first, untimed: the first processes after other
    work start measurably slower while caches refill. Each probe is a
    record like a measured item: its ``wall`` and the host ``ref`` time.
    """
    records = []
    for probe in range(probes + 1):
        probe_dir = work / f"setup-{probe}"
        env = child_env(probe_dir)
        record = {}
        before = reference_seconds()
        t0 = time.perf_counter()
        if wl.service:
            server = Server(server_argv(), env)
            record["wall"] = time.perf_counter() - t0
            server.stop()
        else:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "measure.py"), "setup", wl.name],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            line = proc.stdout.readline()
            record["wall"] = time.perf_counter() - t0
            proc.communicate(timeout=PHASE_TIMEOUT)
            if line.strip() != "ready" or proc.returncode != 0:
                raise PhaseError(f"setup probe exited {proc.returncode}")
        record["ref"] = (before + reference_seconds()) / 2
        records.append(record)
    return records[1:]


# -- checking results -----------------------------------------------------------


def check_phase(wl: Workload, args, out: dict, verdict: Verdict,
                pins: Optional[List[str]]) -> Dict[int, str]:
    """Check every item of one phase; returns the digests of the good ones."""
    digests: Dict[int, str] = {}
    for item in out["items"]:
        verdict.attempted += 1
        index = item["index"]
        where = f"{wl.name} item {index}"
        if "error" in item:
            verdict.fail(f"{where}: {item['error'].strip().splitlines()[-1]}")
            continue
        expected = wl.item_cells(args.seed, index, args.smoke)
        if len(item["cells"]) != len(expected):
            verdict.fail(f"{where}: {len(item['cells'])} cells, expected {len(expected)}")
            continue
        problems = [p for cell, result in zip(expected, item["cells"])
                    for p in check_cell(cell, result)]
        if problems:
            verdict.fail(f"{where}: " + "; ".join(problems[:3]))
            continue
        digest = item_digest(item["cells"])
        if pins is not None and index < len(pins) and pins[index] != digest:
            verdict.fail(f"{where}: digest {digest} != pinned {pins[index]}")
            continue
        digests[index] = digest
    for again in out.get("resubmits", []):
        verdict.attempted += 1
        where = f"{wl.name} resubmit of item {again['of']}"
        original = out["items"][again["of"]]
        if "error" in again:
            verdict.fail(f"{where}: {again['error']}")
        elif again["resumed_cells"] != len(wl.modes):
            verdict.fail(f"{where}: resumed {again['resumed_cells']} of "
                         f"{len(wl.modes)} cells from the journal")
        elif item_digest(again["cells"]) != item_digest(original["cells"]):
            verdict.fail(f"{where}: results differ from the original job")
    if out.get("server_error"):
        verdict.fail(f"{wl.name}: {out['server_error']}")
    return digests


def replay_first_item(wl: Workload, args, digests: Dict[int, str], verdict: Verdict) -> None:
    """Simulate item 0 again in this process: it must match the child's result."""
    verdict.attempted += 1
    try:
        cells = [result_dict(cell.run()) for cell in wl.item_cells(args.seed, 0, args.smoke)]
    except Exception as exc:  # noqa: BLE001 - a failed replay is a failed op
        verdict.fail(f"{wl.name} replay of item 0: {type(exc).__name__}: {exc}")
        return
    if digests.get(0) != item_digest(cells):
        verdict.fail(f"{wl.name} replay of item 0 differs from the measured run")


def sim_digest(digests: Dict[int, str], count: int) -> Optional[str]:
    """Digest of items ``0 .. count-1``; ``None`` unless all of them passed."""
    if any(index not in digests for index in range(count)):
        return None
    return run_digest([digests[index] for index in range(count)])


# -- metrics --------------------------------------------------------------------


def good(items: List[dict]) -> List[dict]:
    return [item for item in items if "error" not in item]


def corrected(record: dict) -> float:
    """A request's wall time at the reference host speed.

    ``ref`` is how long ``measure.reference_seconds`` took around the
    request; when the shared host runs slow, both grow and the ratio
    cancels it. On the baseline host at full speed this equals ``wall``.
    """
    return record["wall"] * REF_SECONDS / record["ref"]


def as_measured(record: dict) -> float:
    return record["wall"]


def requests(out: dict) -> List[dict]:
    """Every timed request that succeeded: items and resubmits."""
    return good(out["items"]) + good(out.get("resubmits", []))


def end_to_end(wl: Workload, out: dict, setup: List[dict],
               duration: Callable[[dict], float]) -> Dict[str, float]:
    """End-to-end metrics, each request taking ``duration(request)`` seconds."""
    items = good(out["items"])
    busy = sum(duration(request) for request in requests(out))
    cells = [cell for item in items for cell in item["cells"]]
    latencies = [duration(item) for item in items]
    return {
        "setup_s": statistics.median([duration(probe) for probe in setup]),
        "cells_per_min": 60.0 * len(cells) / busy,
        "mem_ops_per_s": sum(cell["mem_ops"] for cell in cells) / busy,
        "latency_s.p50": statistics.median(latencies),
        "latency_s.p75": quartiles(latencies)[2],
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }


def per_layer(wl: Workload, untraced: dict, spans: dict, profile: dict) -> Dict[str, float]:
    metrics = {f"profile.{name}": share for name, share in profile["profile"].items()}

    if wl.service:
        lo, hi = spans["window"]
        cells = [(rec["cell"], rec["spans"]) for rec in spans["cell_log"]
                 if lo <= rec["start"] < hi]
    else:
        cells = [(wall, s) for item in good(spans["items"])
                 for wall, s in zip(item["cell_walls"], item["spans"])]
    for span, metric in SIM_SPANS.items():
        metrics[metric] = statistics.median([s.get(span, 0.0) for _wall, s in cells])
    metrics["sim.simulate_s"] = statistics.median([wall - sum(s.values()) for wall, s in cells])
    metrics["host_ns_per_mem_op"] = statistics.median([
        1e9 * wall / cell["mem_ops"]
        for item in good(untraced["items"])
        for wall, cell in zip(item["cell_walls"], item["cells"])
    ])
    metrics["trace_overhead"] = (sum(map(corrected, requests(spans)))
                                 / sum(map(corrected, requests(untraced))) - 1.0)
    metrics["host.speed_factor"] = (
        statistics.median([item["ref"] for item in untraced["items"]]) / REF_SECONDS)

    prefix = [cell for item in untraced["items"][: wl.min_items] for cell in item["cells"]]
    for metric, (field, _unit) in COUNTS.items():
        metrics[metric] = sum(cell[field] for cell in prefix)
    metrics["mem.cache.l1_hit_ratio"] = ratio(
        metrics["mem.cache.l1_hits"],
        metrics["mem.cache.l1_hits"] + metrics["mem.cache.l1_misses"])
    metrics["core.bcc_hit_ratio"] = ratio(
        metrics["core.bcc_hits"], metrics["core.bcc_hits"] + metrics["core.bcc_misses"])

    metrics.update({name: 0.0 for name in JOB_SHARES.values()})
    metrics.update({name: 0.0 for name in HOST_SHARES.values()})
    metrics.update({name: 0.0 for name in SERVICE_OTHER})
    if wl.service:
        metrics.update(service_layers(wl, untraced, spans))
    return metrics


def service_layers(wl: Workload, untraced: dict, spans: dict) -> Dict[str, float]:
    """Where a job's time goes: job record phases, host spans, pool overhead."""
    metrics = {}
    jobs = requests(untraced)
    waited = sum(job["wall"] for job in jobs)
    for phase, metric in JOB_SHARES.items():
        metrics[metric] = sum(job[phase] for job in jobs) / waited
    lo, hi = spans["window"]
    host = totals(spans["host_spans"], lo, hi)
    for span, metric in HOST_SHARES.items():
        metrics[metric] = host.get(span, 0.0) / (hi - lo)
    cell_time = sum(sum(job["cell_walls"]) / min(JOB_WORKERS, len(job["cell_walls"]))
                    for job in good(spans["items"]) if job["cell_walls"])
    metrics["supervisor.pool_overhead_share"] = (
        (host.get("supervisor.map", 0.0) - cell_time) / (hi - lo))
    cold = [job["wall"] for job in good(untraced["items"])]
    again = [job["wall"] for job in good(untraced["resubmits"])]
    metrics["service.resubmit_ratio"] = (
        ratio(statistics.median(again), statistics.median(cold)) if again else 0.0)
    metrics["service.http_errors"] = sum(
        job.get("http_errors", 0)
        for out in (untraced, spans) for job in out["items"] + out["resubmits"])
    for name in ("retries", "pool_rebuilds"):
        metrics[f"supervisor.{name}"] = sum(job["supervisor"].get(name, 0) for job in jobs)
    metrics["sweep.cache_hit_rate"] = ratio(sum(job["cache_hits"] for job in jobs),
                                            sum(len(job["cells"]) for job in jobs))
    metrics["sweep.resumed_cells"] = sum(
        job["resumed_cells"] for job in good(untraced["resubmits"])
        if job["of"] < wl.min_items)
    return metrics


# -- one workload ---------------------------------------------------------------


def run_workload(wl: Workload, args, work: Path) -> dict:
    verdict = Verdict()
    pins = pinned.load().get(wl.name, {}).get(pinned.key(args.seed, args.smoke))
    min_items = wl.smoke_items if args.smoke else wl.min_items
    seconds = 0.0 if args.smoke else args.seconds
    report = {"seed": args.seed, "pinned": pins is not None, "metrics": {}}
    try:
        if not args.trace:
            setup = measure_setup(wl, work, 1 if args.smoke else SETUP_PROBES)
            out = run_phase(wl, args, work, "untraced", seconds, min_items)
            digests = check_phase(wl, args, out, verdict, pins)
            replay_first_item(wl, args, digests, verdict)
            values = end_to_end(wl, out, setup, corrected)
            report["as_measured"] = end_to_end(wl, out, setup, as_measured)
            units = END_TO_END
        else:
            untraced = run_phase(wl, args, work, "untraced", seconds / 3, min_items)
            n = len(untraced["items"])
            spans = run_phase(wl, args, work, "spans", 0.0, n, n)
            profile = run_phase(wl, args, work, "profile", seconds / 3, 1)
            digests = check_phase(wl, args, untraced, verdict, pins)
            traced = check_phase(wl, args, spans, verdict, pins)
            check_phase(wl, args, profile, verdict, pins)
            for index, digest in traced.items():
                if digests.get(index, digest) != digest:
                    verdict.fail(f"{wl.name} item {index}: traced result differs")
            values = per_layer(wl, untraced, spans, profile)
            units = per_layer_units()
        report["samples"] = len(digests)
        report["sim_digest"] = sim_digest(digests, min_items)
        if verdict.failed == 0:
            report["metrics"] = {name: {"value": values[name], "unit": unit}
                                 for name, unit in units.items()}
    except PhaseError as exc:
        verdict.attempted = max(verdict.attempted, 1)
        verdict.fail(f"{wl.name}: {exc}")
    report.update(correct=verdict.failed == 0, attempted=verdict.attempted,
                  failed=verdict.failed, problems=verdict.problems)
    return report


def print_report(name: str, report: dict) -> None:
    tag = " (pinned seed)" if report["pinned"] else ""
    print(f"{name}: seed {report['seed']}{tag}, {report.get('samples', 0)} items, "
          f"{report['attempted']} ops attempted, {report['failed']} failed, "
          f"sim_digest {report.get('sim_digest')}")
    raw = report.get("as_measured", {})
    for metric, entry in report["metrics"].items():
        note = f"  (as measured {raw[metric]:.6g})" if metric in raw else ""
        print(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']}{note}")
    for problem in report["problems"]:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="print the per-layer metrics instead")
    parser.add_argument("--out", type=Path, help="also write the full report here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed-size items, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # results are checked against the model
    # The Python analogue of a build: without bytecode caches every fresh
    # process would compile the program, and setup_s would time that.
    compileall.compile_dir(str(SRC), quiet=1)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = {}
    for name in names:
        work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            reports[name] = run_workload(WORKLOADS[name], args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass  # another run is still using it
        print_report(name, reports[name])
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "trace": args.trace, "smoke": args.smoke,
             "workloads": reports}, indent=1))

    if len(names) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry for name, report in reports.items()
                   for metric, entry in report["metrics"].items()}
    correct = all(report["correct"] for report in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(report["attempted"] for report in reports.values()),
        "failed": sum(report["failed"] for report in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
