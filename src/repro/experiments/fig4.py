"""Figure 4 — runtime overhead of each safety approach vs. the unsafe
ATS-only IOMMU baseline, per workload, for both GPU configurations.

Paper reference values (geometric means):

======================  ================  ====================
Configuration           Highly threaded   Moderately threaded
======================  ================  ====================
Full IOMMU              374%              85%
CAPI-like               3.81%             16.5%
Border Control-noBCC    2.04%             7.26%
Border Control-BCC      0.15%             0.84%
======================  ================  ====================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.experiments.common import cache_key, fmt_percent, text_table
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import RunResult, geometric_mean, runtime_overhead
from repro.workloads.registry import workload_names

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.sweep import Cell

__all__ = ["Fig4Result", "grid", "run", "PAPER_GEOMEANS", "SAFETY_MODES"]

SAFETY_MODES = [
    SafetyMode.FULL_IOMMU,
    SafetyMode.CAPI_LIKE,
    SafetyMode.BC_NO_BCC,
    SafetyMode.BC_BCC,
]

PAPER_GEOMEANS: Dict[GPUThreading, Dict[SafetyMode, float]] = {
    GPUThreading.HIGHLY: {
        SafetyMode.FULL_IOMMU: 3.74,
        SafetyMode.CAPI_LIKE: 0.0381,
        SafetyMode.BC_NO_BCC: 0.0204,
        SafetyMode.BC_BCC: 0.0015,
    },
    GPUThreading.MODERATELY: {
        SafetyMode.FULL_IOMMU: 0.85,
        SafetyMode.CAPI_LIKE: 0.165,
        SafetyMode.BC_NO_BCC: 0.0726,
        SafetyMode.BC_BCC: 0.0084,
    },
}

# Per-workload full-IOMMU overheads readable from Fig. 4a's annotations.
PAPER_FULL_IOMMU_HIGHLY = {
    "backprop": 1.43,
    "bfs": 9.83,
    "hotspot": 1.60,
    "lud": 8.98,
    "nn": 1.76,
    "nw": 8.14,
    "pathfinder": 2.15,
}


@dataclass
class Fig4Result:
    """Per-workload overheads for one GPU threading configuration.

    Under ``allow_partial``, cells that failed are recorded as ``None``
    and rendered as explicit ``—`` gap markers; the geomean covers the
    surviving workloads only.
    """

    threading: GPUThreading
    # overheads[mode][workload] -> fractional overhead (0.15 == 15%),
    # or None for a gap (cell failed, partial rendering allowed)
    overheads: Dict[SafetyMode, Dict[str, Optional[float]]] = field(
        default_factory=dict
    )
    baseline_cycles: Dict[str, Optional[float]] = field(default_factory=dict)

    def geomean(self, mode: SafetyMode) -> Optional[float]:
        values = [v for v in self.overheads[mode].values() if v is not None]
        return geometric_mean(values) if values else None

    @property
    def complete(self) -> bool:
        return all(
            v is not None
            for per_mode in self.overheads.values()
            for v in per_mode.values()
        )

    def render(self) -> str:
        def fmt(value: Optional[float]) -> str:
            return "—" if value is None else fmt_percent(value)

        headers = ["workload"] + [m.label for m in SAFETY_MODES]
        rows = []
        for name in self.overheads[SAFETY_MODES[0]]:
            rows.append(
                [name] + [fmt(self.overheads[m][name]) for m in SAFETY_MODES]
            )
        rows.append(["GEOMEAN"] + [fmt(self.geomean(m)) for m in SAFETY_MODES])
        rows.append(
            ["paper"]
            + [fmt_percent(PAPER_GEOMEANS[self.threading][m]) for m in SAFETY_MODES]
        )
        title = (
            f"Figure 4{'a' if self.threading is GPUThreading.HIGHLY else 'b'}: "
            f"runtime overhead vs. ATS-only IOMMU ({self.threading.label})"
        )
        if not self.complete:
            title += "  [PARTIAL: — marks failed cells]"
        return text_table(headers, rows, title=title)


def grid(
    threading: GPUThreading = GPUThreading.HIGHLY,
    workloads: Optional[List[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
) -> List["Cell"]:
    """The figure's simulation grid: baseline + every safety mode."""
    from repro.sweep import Cell

    names = workloads or workload_names()
    return [
        Cell(name, mode, threading, seed, ops_scale, tag="fig4")
        for name in names
        for mode in [SafetyMode.ATS_ONLY] + SAFETY_MODES
    ]


def run(
    threading: GPUThreading = GPUThreading.HIGHLY,
    workloads: Optional[List[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
    workers: Optional[int] = 1,
    allow_partial: bool = False,
    journal=None,
) -> Fig4Result:
    """Simulate every (workload, safety mode) pair for one GPU config.

    The grid runs as one campaign (:func:`repro.sweep.grid_results`) on
    ``workers`` processes (``None`` = all cores), resumable through a
    ``journal`` (:class:`repro.journal.RunJournal`); output is identical
    either way. ``allow_partial`` degrades gracefully instead of
    raising :class:`~repro.errors.SweepError`: failed cells become
    ``None`` gaps in the result.
    """
    from repro.sweep import grid_results

    results = grid_results(
        grid(threading, workloads, seed, ops_scale),
        workers=workers,
        journal=journal,
        allow_partial=allow_partial,
    )
    result = Fig4Result(threading=threading)
    for mode in SAFETY_MODES:
        result.overheads[mode] = {}

    def run_of(name: str, mode: SafetyMode) -> Optional[RunResult]:
        return results[cache_key(name, mode, threading, seed, ops_scale)]

    for name in workloads or workload_names():
        base = run_of(name, SafetyMode.ATS_ONLY)
        result.baseline_cycles[name] = None if base is None else base.gpu_cycles
        for mode in SAFETY_MODES:
            res = run_of(name, mode)
            result.overheads[mode][name] = (
                None if base is None or res is None else runtime_overhead(res, base)
            )
    return result
