"""Figure 6 — BCC miss ratio vs. cache size, for several entry granularities.

The paper sweeps the Border Control Cache budget from tens of bytes to
1 KB for entry granularities of 1, 2, 32, and 512 pages per entry (each
entry carries a 36-bit tag) and plots the miss ratio averaged over the
benchmarks. Finding: sub-blocking pays — with 512 pages/entry a 1 KB BCC
already misses less than 0.1% of the time, thanks to spatial locality
across physical pages; the paper still provisions 8 KB for headroom.

Reproduction: we record the real (ppn, is_write) stream crossing the
border during a Border Control-BCC run of each workload, then replay the
stream through standalone BCC models of every swept geometry. Replaying
the genuine stream keeps the miss ratio faithful to what the in-system
BCC would see, without re-simulating the whole machine per point. Each
recording run is an ordinary sweep cell: its trace is part of its
result, so it is cached, journaled and placed on a fleet like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.bcc import BCCConfig, BorderControlCache
from repro.experiments.common import text_table
from repro.sim.config import GPUThreading, SafetyMode
from repro.workloads.registry import workload_names

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.sweep import Cell

__all__ = ["Fig6Result", "grid", "run", "replay_miss_ratio", "PAGES_PER_ENTRY_SWEEP"]

PAGES_PER_ENTRY_SWEEP = (1, 2, 32, 512)
DEFAULT_SIZES = (64, 128, 192, 256, 384, 512, 640, 768, 896, 1024)


class _AllPermissiveTable:
    """Protection Table stand-in for replay: every page readable+writable.

    Miss ratios depend only on the address stream and cache geometry, not
    on the permission values, so the replay backs fills with RW bits.
    """

    @staticmethod
    def read_bits(start_ppn: int, count: int) -> int:
        return (1 << (2 * count)) - 1

    @staticmethod
    def grant(ppn: int, perms) -> bool:  # pragma: no cover - replay never grants
        return False


def replay_miss_ratio(
    stream: Sequence[Tuple[int, bool]], config: BCCConfig
) -> float:
    """Miss ratio of one BCC geometry over a recorded border stream."""
    bcc = BorderControlCache(config)
    table = _AllPermissiveTable()
    for ppn, _write in stream:
        bcc.lookup(ppn, table)
    return bcc.miss_ratio()


@dataclass
class Fig6Result:
    sizes_bytes: List[int]
    # miss_ratio[pages_per_entry][size_index] averaged over workloads
    miss_ratio: Dict[int, List[Optional[float]]] = field(default_factory=dict)
    workloads: List[str] = field(default_factory=list)
    #: Workloads whose recording run failed under ``allow_partial``.
    missing: List[str] = field(default_factory=list)

    def render(self) -> str:
        headers = ["BCC bytes"] + [f"{ppe} pg/entry" for ppe in sorted(self.miss_ratio)]
        rows = []
        for i, size in enumerate(self.sizes_bytes):
            row = [str(size)]
            for ppe in sorted(self.miss_ratio):
                value = self.miss_ratio[ppe][i]
                row.append("-" if value is None else f"{value:.4f}")
            rows.append(row)
        title = "Figure 6: BCC miss ratio vs. size (avg over workloads)"
        if self.missing:
            title += f"  [PARTIAL: missing {', '.join(self.missing)}]"
        return text_table(headers, rows, title=title)


def grid(
    threading: GPUThreading = GPUThreading.HIGHLY,
    workloads: Optional[List[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
) -> List["Cell"]:
    """The figure's simulation grid: one border-recording run per workload.

    These cells carry ``record_border=True``, so each result holds the
    recorded stream, under its own cache key.
    """
    from repro.sweep import Cell

    names = workloads or workload_names()
    return [
        Cell(
            name,
            SafetyMode.BC_BCC,
            threading,
            seed,
            ops_scale,
            record_border=True,
            tag="fig6",
        )
        for name in names
    ]


def run(
    sizes_bytes: Sequence[int] = DEFAULT_SIZES,
    pages_per_entry: Sequence[int] = PAGES_PER_ENTRY_SWEEP,
    workloads: Optional[List[str]] = None,
    threading: GPUThreading = GPUThreading.HIGHLY,
    seed: int = 1234,
    ops_scale: float = 1.0,
    workers: Optional[int] = 1,
    allow_partial: bool = False,
    journal=None,
) -> Fig6Result:
    """Record border streams once per workload, replay over the sweep.

    The recording runs are one campaign (:func:`repro.sweep.grid_results`),
    resumable through a ``journal``. ``allow_partial`` averages the
    curves over workloads whose recording run survived instead of
    raising.
    """
    from repro.sweep import grid_results

    cells = grid(threading, workloads, seed, ops_scale)
    results = grid_results(
        cells, workers=workers, journal=journal, allow_partial=allow_partial
    )
    traced = {cell.workload: results[cell.key()] for cell in cells}
    streams = [
        res.border_trace
        for res in traced.values()
        if res is not None and res.border_trace
    ]
    result = Fig6Result(
        sizes_bytes=list(sizes_bytes),
        workloads=list(traced),
        missing=[name for name, res in traced.items() if res is None],
    )
    for ppe in pages_per_entry:
        ratios: List[Optional[float]] = []
        for size in sizes_bytes:
            try:
                config = BCCConfig.from_budget(size, ppe)
            except Exception:
                ratios.append(None)  # budget too small for even one entry
                continue
            per_workload = [replay_miss_ratio(s, config) for s in streams]
            if not per_workload:
                ratios.append(None)  # no surviving streams to average
                continue
            ratios.append(sum(per_workload) / len(per_workload))
        result.miss_ratio[ppe] = ratios
    return result
