#!/usr/bin/env python
"""Profile the simulation core on any workload/config cell.

Runs one :func:`repro.sim.runner.run_single` cell under :mod:`cProfile`
and prints (a) a top-N table sorted by cumulative or total time and (b) a
flame-style text tree — callees indented under callers, widths
proportional to cumulative time — so the hot path through
engine → wavefront → memory hierarchy is visible at a glance. This is the
tool that found the closure-allocation and per-op-wakeup hot spots the
fast-path work removed; keep using it before optimizing anything else.

Usage::

    PYTHONPATH=src python tools/profile.py                         # fig4 reference cell
    PYTHONPATH=src python tools/profile.py -w hotspot -s ats-only
    PYTHONPATH=src python tools/profile.py -w bfs --threading moderately-threaded \
        --ops-scale 0.25 -n 40 --sort tottime
    PYTHONPATH=src python tools/profile.py --flame-depth 14
    PYTHONPATH=src python tools/profile.py --dump /tmp/cell.pstats # for snakeviz etc.
"""

from __future__ import annotations

import os
import sys

# This file is named profile.py, which shadows the stdlib `profile` module
# that cProfile imports — drop the script's own directory from sys.path
# before touching cProfile.
_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != _TOOLS_DIR]
sys.modules.pop("profile", None)

import argparse
import cProfile
import pstats
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _build_parser() -> argparse.ArgumentParser:
    from repro.sim.config import GPUThreading, SafetyMode
    from repro.workloads import workload_names

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "-w", "--workload", default="bfs", choices=workload_names(),
        help="workload trace to replay (default: bfs)",
    )
    parser.add_argument(
        "-s", "--safety", default=SafetyMode.BC_BCC.value,
        choices=[mode.value for mode in SafetyMode],
        help="safety configuration (default: border-control-bcc)",
    )
    parser.add_argument(
        "--threading", default=GPUThreading.HIGHLY.value,
        choices=[t.value for t in GPUThreading],
        help="GPU threading configuration (default: highly-threaded)",
    )
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--ops-scale", type=float, default=1.0)
    parser.add_argument(
        "-n", "--top", type=int, default=25,
        help="rows in the top-N table (default: 25)",
    )
    parser.add_argument(
        "--sort", default="cumulative", choices=["cumulative", "tottime", "ncalls"],
        help="top-N sort key (default: cumulative)",
    )
    parser.add_argument(
        "--flame-depth", type=int, default=10,
        help="max depth of the flame-style tree (default: 10; 0 disables)",
    )
    parser.add_argument(
        "--min-percent", type=float, default=1.0,
        help="hide flame nodes below this %% of total time (default: 1.0)",
    )
    parser.add_argument(
        "--dump", type=Path, default=None,
        help="also write raw pstats data to this path",
    )
    return parser


def _func_label(func: Tuple[str, int, str]) -> str:
    filename, lineno, name = func
    if filename.startswith("~"):  # built-ins
        return name
    parts = Path(filename).parts
    # Shorten to the repo-relative tail: src/repro/... -> repro/...
    if "repro" in parts:
        filename = "/".join(parts[parts.index("repro"):])
    else:
        filename = Path(filename).name
    return f"{filename}:{lineno}:{name}"


def _flame_tree(
    stats: pstats.Stats, top: int, max_depth: int, min_percent: float
) -> List[str]:
    """Flame-style text rendering: callees nested under callers.

    cProfile records a call *graph*, not a tree, so a function reached by
    several callers appears under each with its per-caller cumulative
    time. Bars are sized by share of total runtime.
    """
    total = stats.total_tt or 1e-12
    # callers map: func -> {caller -> (ncalls, _, tottime, cumtime)}
    callees: Dict[tuple, List[Tuple[tuple, float]]] = {}
    roots: List[Tuple[tuple, float]] = []
    for func, (_cc, _nc, _tt, ct, callers) in stats.stats.items():
        if not callers:
            roots.append((func, ct))
        for caller, (_ncalls, _nc2, _tt2, caller_ct) in callers.items():
            callees.setdefault(caller, []).append((func, caller_ct))

    lines: List[str] = []

    def render(func: tuple, ct: float, depth: int, budget: List[int]) -> None:
        if budget[0] <= 0 or depth > max_depth:
            return
        share = 100.0 * ct / total
        if share < min_percent:
            return
        bar = "█" * max(1, int(share / 4))
        lines.append(f"{'  ' * depth}{bar} {share:5.1f}%  {_func_label(func)}")
        budget[0] -= 1
        for child, child_ct in sorted(
            callees.get(func, []), key=lambda item: -item[1]
        ):
            if child != func:  # cut simple recursion cycles
                render(child, child_ct, depth + 1, budget)

    budget = [max(top * 4, 60)]
    for func, ct in sorted(roots, key=lambda item: -item[1]):
        render(func, ct, 0, budget)
    return lines


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    from repro.sim.config import GPUThreading, SafetyMode
    from repro.sim.runner import run_single

    cell = (
        f"{args.workload}/{args.safety}/{args.threading} "
        f"seed={args.seed} ops_scale={args.ops_scale}"
    )
    print(f"profiling {cell} ...", flush=True)

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_single(
        args.workload,
        SafetyMode(args.safety),
        GPUThreading(args.threading),
        seed=args.seed,
        ops_scale=args.ops_scale,
    )
    profiler.disable()

    stats = pstats.Stats(profiler)
    if args.dump:
        stats.dump_stats(str(args.dump))
        print(f"raw pstats written to {args.dump}")

    print(
        f"\ncell ran: {result.mem_ops} mem ops, "
        f"{result.gpu_cycles:.0f} GPU cycles, wall {stats.total_tt:.3f}s\n"
    )
    print(f"== top {args.top} by {args.sort} " + "=" * 40)
    stats.sort_stats(args.sort).print_stats(args.top)

    if args.flame_depth > 0:
        print("== flame-style call tree (cumulative time) " + "=" * 24)
        for line in _flame_tree(stats, args.top, args.flame_depth, args.min_percent):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
