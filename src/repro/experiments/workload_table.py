"""Workload characterization table (companion to §5.1's workload list).

The paper describes its Rodinia workloads qualitatively ("regular memory
access patterns (e.g., lud) to irregular, data-dependent accesses (e.g.,
bfs)"). This driver renders the measured characteristics of our proxies
so a reader can audit the calibration: cold/locality mixture, cache hit
ratios, border traffic, and DRAM pressure under the Border Control-BCC
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.experiments.common import text_table
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import RunResult
from repro.workloads.registry import WORKLOADS, workload_names

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.sweep import Cell

__all__ = ["WorkloadTable", "grid", "run"]


@dataclass
class WorkloadTable:
    threading: GPUThreading
    results: Dict[str, RunResult] = field(default_factory=dict)
    #: Workloads whose cell failed under ``allow_partial``.
    missing: List[str] = field(default_factory=list)

    def render(self) -> str:
        rows: List[List[str]] = []
        for name, res in self.results.items():
            spec = WORKLOADS[name]
            rows.append(
                [
                    name,
                    spec.pattern,
                    f"{spec.footprint_bytes // 2**20} MiB",
                    f"{spec.write_fraction:.0%}",
                    f"{spec.compute_gap_mean:g}",
                    f"{res.l1_hit_ratio:.2f}",
                    f"{res.l2_hit_ratio:.2f}",
                    f"{res.checks_per_cycle:.3f}",
                    f"{res.dram_utilization:.2f}",
                ]
            )
        title = (
            f"Workload characteristics under Border Control-BCC "
            f"({self.threading.label})"
        )
        if self.missing:
            title += f"  [PARTIAL: missing {', '.join(self.missing)}]"
        return text_table(
            [
                "workload",
                "pattern",
                "footprint",
                "writes",
                "gap",
                "L1 hit",
                "L2 hit",
                "border/cyc",
                "DRAM util",
            ],
            rows,
            title=title,
        )


def grid(
    threading: GPUThreading = GPUThreading.HIGHLY,
    workloads: Optional[List[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
) -> List["Cell"]:
    """The table's simulation grid: BC-BCC per workload."""
    from repro.sweep import Cell

    names = workloads or workload_names()
    return [
        Cell(name, SafetyMode.BC_BCC, threading, seed, ops_scale, tag="workloads")
        for name in names
    ]


def run(
    threading: GPUThreading = GPUThreading.HIGHLY,
    workloads: Optional[List[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
    workers: Optional[int] = 1,
    allow_partial: bool = False,
    journal=None,
) -> WorkloadTable:
    """The grid runs as one campaign (:func:`repro.sweep.grid_results`);
    ``allow_partial`` drops failed workloads from the table with a note
    instead of raising, and a ``journal`` makes the run resumable."""
    from repro.sweep import grid_results

    cells = grid(threading, workloads, seed, ops_scale)
    results = grid_results(
        cells, workers=workers, journal=journal, allow_partial=allow_partial
    )
    table = WorkloadTable(threading=threading)
    for cell in cells:
        res = results[cell.key()]
        if res is None:
            table.missing.append(cell.workload)
        else:
            table.results[cell.workload] = res
    return table
