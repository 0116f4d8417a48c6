"""Figure 7 — runtime overhead vs. permission-downgrade frequency.

Downgrades (context switches, swapping, memory compaction) force every
accelerator — trusted or not — to drain outstanding requests and drop
translations; Border Control additionally flushes the accelerator caches,
zeroes the Protection Table, and invalidates the BCC (paper §3.2.4). The
paper sweeps 0-1000 downgrades/second and finds the overhead negligible
(~0.02% at today's 10-200/s context-switch rates, <0.5% at 1000/s), with
Border Control costing roughly 2x the ATS-only baseline per downgrade.

Reproduction: our kernels run for tens of microseconds of simulated
time, so waiting for wall-clock-rate downgrades would observe none. We
instead inject downgrades densely (every few thousand GPU cycles),
measure the *marginal cost per downgrade* from the runtime delta, and
express the paper's curve as ``overhead(rate) = rate x cost_seconds``,
which is exactly the regime of Fig. 7 (costs are small and additive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.experiments.common import cache_key, text_table
from repro.sim.clock import TICKS_PER_SECOND
from repro.sim.config import GPUThreading, SafetyMode
from repro.workloads.registry import workload_names

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.sweep import Cell

__all__ = ["Fig7Result", "grid", "run", "DEFAULT_RATES"]

DEFAULT_RATES = (0, 100, 200, 400, 600, 800, 1000)
MODES = (SafetyMode.ATS_ONLY, SafetyMode.BC_BCC)

# The paper's rough reference points at 1000 downgrades/s.
PAPER_AT_1000 = {
    (SafetyMode.BC_BCC, GPUThreading.HIGHLY): 0.004,
    (SafetyMode.BC_BCC, GPUThreading.MODERATELY): 0.0035,
    (SafetyMode.ATS_ONLY, GPUThreading.HIGHLY): 0.002,
    (SafetyMode.ATS_ONLY, GPUThreading.MODERATELY): 0.0017,
}


@dataclass
class Fig7Result:
    rates: List[int]
    # cost per downgrade in seconds, per (mode, threading)
    cost_seconds: Dict[SafetyMode, Dict[GPUThreading, float]] = field(
        default_factory=dict
    )

    def overhead(self, mode: SafetyMode, threading: GPUThreading, rate: float) -> float:
        """Fractional runtime overhead at a downgrade rate (per second)."""
        return rate * self.cost_seconds[mode][threading]

    def series(self, mode: SafetyMode, threading: GPUThreading) -> List[float]:
        return [self.overhead(mode, threading, r) for r in self.rates]

    def bc_to_baseline_cost_ratio(self, threading: GPUThreading) -> float:
        """Paper: BC incurs ~2x the per-downgrade cost of ATS-only."""
        base = self.cost_seconds[SafetyMode.ATS_ONLY][threading]
        bc = self.cost_seconds[SafetyMode.BC_BCC][threading]
        return bc / base if base > 0 else float("inf")

    def render(self) -> str:
        headers = ["downgrades/s"] + [
            f"{mode.label} / {thr.label}"
            for mode in MODES
            for thr in (GPUThreading.HIGHLY, GPUThreading.MODERATELY)
        ]
        rows = []
        for i, rate in enumerate(self.rates):
            row = [str(rate)]
            for mode in MODES:
                for thr in (GPUThreading.HIGHLY, GPUThreading.MODERATELY):
                    row.append(f"{self.series(mode, thr)[i] * 100:.4f}%")
            rows.append(row)
        return text_table(
            headers, rows, title="Figure 7: overhead vs. permission downgrade rate"
        )


def grid(
    workloads: Optional[List[str]] = None,
    injection_interval_cycles: float = 4000.0,
    seed: int = 1234,
    ops_scale: float = 1.0,
) -> List["Cell"]:
    """The figure's grid: plain + downgrade-injected cells, all configs."""
    from repro.sweep import Cell

    names = workloads or workload_names()
    return [
        Cell(
            name,
            mode,
            threading,
            seed,
            ops_scale,
            downgrade_interval_cycles=interval,
            tag="fig7",
        )
        for mode in MODES
        for threading in (GPUThreading.HIGHLY, GPUThreading.MODERATELY)
        for name in names
        for interval in (None, injection_interval_cycles)
    ]


def run(
    rates: Sequence[int] = DEFAULT_RATES,
    workloads: Optional[List[str]] = None,
    injection_interval_cycles: float = 4000.0,
    seed: int = 1234,
    ops_scale: float = 1.0,
    workers: Optional[int] = 1,
    allow_partial: bool = False,
    journal=None,
) -> Fig7Result:
    """Measure per-downgrade costs and build the Fig. 7 curves.

    The grid runs as one campaign (:func:`repro.sweep.grid_results`);
    ``allow_partial`` averages each curve over the workloads whose
    cells survived instead of raising, and a ``journal`` makes the run
    resumable.
    """
    from repro.sweep import grid_results

    results = grid_results(
        grid(workloads, injection_interval_cycles, seed, ops_scale),
        workers=workers,
        journal=journal,
        allow_partial=allow_partial,
    )
    result = Fig7Result(rates=list(rates))
    for mode in MODES:
        result.cost_seconds[mode] = {}
        for threading in (GPUThreading.HIGHLY, GPUThreading.MODERATELY):
            costs: List[float] = []
            for name in workloads or workload_names():
                plain, downgraded = (
                    results[cache_key(name, mode, threading, seed, ops_scale, dgi)]
                    for dgi in (None, injection_interval_cycles)
                )
                if plain is None or downgraded is None:
                    continue  # cell failed: curve averages the survivors
                if downgraded.downgrades <= 0:
                    continue
                delta_ticks = max(0, downgraded.ticks - plain.ticks)
                costs.append(
                    delta_ticks / downgraded.downgrades / TICKS_PER_SECOND
                )
            result.cost_seconds[mode][threading] = (
                sum(costs) / len(costs) if costs else 0.0
            )
    return result
