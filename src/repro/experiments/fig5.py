"""Figure 5 — requests per cycle checked by Border Control.

The paper reports, per workload, how many requests Border Control checks
per GPU cycle on the highly threaded GPU: ~0.11 on average, ranging from
0.025 (backprop) to 0.29 (bfs). The conclusion it supports: bandwidth at
Border Control is not a bottleneck, because the accelerator's private
caches filter most traffic before the border (paper §5.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.experiments.common import text_table
from repro.sim.config import GPUThreading, SafetyMode

from repro.workloads.registry import workload_names

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.sweep import Cell

__all__ = ["Fig5Result", "grid", "run", "PAPER_REQUESTS_PER_CYCLE"]

# Values readable from Fig. 5's bars (backprop and bfs are called out in
# the text; the rest are approximate bar heights).
PAPER_REQUESTS_PER_CYCLE = {
    "backprop": 0.025,
    "bfs": 0.29,
    "hotspot": 0.08,
    "lud": 0.05,
    "nn": 0.17,
    "nw": 0.10,
    "pathfinder": 0.05,
}
PAPER_AVERAGE = 0.11


@dataclass
class Fig5Result:
    threading: GPUThreading
    # None marks a gap (cell failed, partial rendering allowed)
    requests_per_cycle: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def average(self) -> float:
        values = [v for v in self.requests_per_cycle.values() if v is not None]
        return sum(values) / len(values) if values else 0.0

    @property
    def complete(self) -> bool:
        return all(v is not None for v in self.requests_per_cycle.values())

    def render(self) -> str:
        rows = [
            [
                name,
                "—" if value is None else f"{value:.3f}",
                f"{PAPER_REQUESTS_PER_CYCLE.get(name, 0):.3f}",
            ]
            for name, value in self.requests_per_cycle.items()
        ]
        rows.append(["AVG", f"{self.average:.3f}", f"{PAPER_AVERAGE:.3f}"])
        title = (
            "Figure 5: requests per cycle checked by Border Control "
            f"({self.threading.label})"
        )
        if not self.complete:
            title += "  [PARTIAL: — marks failed cells]"
        return text_table(["workload", "req/cycle", "paper"], rows, title=title)


def grid(
    threading: GPUThreading = GPUThreading.HIGHLY,
    workloads: Optional[List[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
) -> List["Cell"]:
    """The figure's simulation grid: BC-BCC per workload."""
    from repro.sweep import Cell

    names = workloads or workload_names()
    return [
        Cell(name, SafetyMode.BC_BCC, threading, seed, ops_scale, tag="fig5")
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
) -> Fig5Result:
    """Measure border-crossing request rates under Border Control-BCC.

    The grid runs as one campaign (:func:`repro.sweep.grid_results`);
    ``allow_partial`` renders gaps for failed cells instead of raising,
    and a ``journal`` makes the run resumable.
    """
    from repro.sweep import grid_results

    cells = grid(threading, workloads, seed, ops_scale)
    results = grid_results(
        cells, workers=workers, journal=journal, allow_partial=allow_partial
    )
    result = Fig5Result(threading=threading)
    for cell in cells:
        res = results[cell.key()]
        result.requests_per_cycle[cell.workload] = (
            None if res is None else res.checks_per_cycle
        )
    return result
