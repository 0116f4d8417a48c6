"""Experiment runner: build a system, run a workload, collect results.

This is the harness layer the benchmarks and experiments drive. A
:class:`RunResult` carries everything the paper's figures need: elapsed
GPU cycles (runtime), border-crossing counts (Fig. 5), BCC hit ratios
(Fig. 6's full-system counterpart), DRAM traffic, and violation counts.

The runner imports only the simulator: the host layers (supervisor,
sweep, journal) and the campaigns built on them import it, never the
other way round. Fault-injection campaigns live in :mod:`repro.chaos`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.accel.gpu import KernelTrace
from repro.errors import SimulationIncompleteError
from repro.mem.address import PAGE_SHIFT
from repro.sim.config import GPUThreading, SafetyMode, SystemConfig
from repro.sim.system import System
from repro.workloads.base import WorkloadSpec, generate_trace
from repro.workloads.registry import get_workload

__all__ = [
    "RunResult",
    "collect_result",
    "geometric_mean",
    "run_single",
    "runtime_overhead",
]


@dataclass
class RunResult:
    """Measurements from one (workload, configuration) simulation."""

    workload: str
    safety: SafetyMode
    threading: GPUThreading
    ticks: int
    gpu_cycles: float
    mem_ops: int
    blocked_ops: int
    border_checks: int
    border_pt_accesses: int
    bcc_hits: int
    bcc_misses: int
    ats_translations: int
    ats_walks: int
    dram_bytes: int
    dram_utilization: float
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    l2_writebacks: int
    violations: int
    downgrades: int = 0
    border_trace: Optional[list] = None  # [(ppn, is_write)] when recorded
    # Resilience bookkeeping (all zero outside chaos runs): faults the
    # chaos layer injected, timeout/ATS retries spent absorbing them, how
    # often the supervising watchdog had to intervene, and how often the
    # OS quarantined the accelerator.
    faults_injected: int = 0
    retries: int = 0
    watchdog_fires: int = 0
    quarantines: int = 0
    # Recovery bookkeeping (repro.recovery; all zero outside recovery
    # campaigns): kernel relaunch attempts after an epoch-fenced reset,
    # how many succeeded, CPU-fallback executions after the retry budget
    # was exhausted, ticks spent in recovery, and stale-epoch traffic
    # rejected at the border/ATS fence.
    recoveries_attempted: int = 0
    recoveries_succeeded: int = 0
    fallback_executions: int = 0
    recovery_ticks: int = 0
    stale_epoch_rejections: int = 0

    @property
    def checks_per_cycle(self) -> float:
        """Fig. 5's metric: border-crossing requests per GPU cycle."""
        return self.border_checks / self.gpu_cycles if self.gpu_cycles else 0.0

    @property
    def bcc_miss_ratio(self) -> float:
        total = self.bcc_hits + self.bcc_misses
        return self.bcc_misses / total if total else 0.0

    @property
    def l1_hit_ratio(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    @property
    def l2_hit_ratio(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0


def run_single(
    workload: str,
    safety: SafetyMode,
    threading: GPUThreading = GPUThreading.HIGHLY,
    seed: int = 1234,
    ops_scale: float = 1.0,
    config: Optional[SystemConfig] = None,
    spec: Optional[WorkloadSpec] = None,
    record_border: bool = False,
    downgrade_interval_cycles: Optional[float] = None,
    large_pages: bool = False,
) -> RunResult:
    """Run one workload on one configuration; returns its measurements.

    ``record_border`` captures the (ppn, is_write) stream crossing the
    border, as a ``decision`` subscriber (Fig. 6 replays it);
    ``downgrade_interval_cycles`` injects a full permission downgrade —
    the Fig. 7 event — every N GPU cycles while the kernel runs. The
    cell's :class:`System` is closed on return, so reference counting
    frees it there.
    """
    spec = spec or get_workload(workload)
    cfg = (config or SystemConfig()).with_safety(safety).with_threading(threading)
    system = System(cfg)
    try:
        proc = system.new_process(spec.name)
        system.attach_process(proc)
        trace = generate_trace(
            spec,
            system.kernel,
            proc,
            threading,
            seed=seed,
            ops_scale=ops_scale,
            large_pages=large_pages,
        )
        border_trace = None
        if record_border and system.border_port is not None:
            border_trace = []

            def record_crossing(accel_id, paddr, write, decision):
                border_trace.append((paddr >> PAGE_SHIFT, write))

            system.events.subscribe("decision", record_crossing)

        downgrades = [0]
        if downgrade_interval_cycles is None:
            ticks = system.run_kernel(proc, trace)
        else:
            interval_ticks = system.gpu_clock.cycles_to_ticks(
                downgrade_interval_cycles
            )
            start = system.engine.now
            done = system.gpu.launch(proc.asid, trace)
            end_time = [start]

            def watcher():
                yield done
                end_time[0] = system.engine.now

            def injector():
                while not done.triggered:
                    yield interval_ticks
                    if done.triggered:
                        break
                    yield from system.kernel.downgrade_process_g(proc)
                    downgrades[0] += 1

            system.engine.process(watcher(), name="kernel-watcher")
            system.engine.process(injector(), name="downgrade-injector")
            system.engine.run()
            if not done.triggered:
                # Without this check, end_time[0] stays at `start` and a
                # silent ticks=0 result poisons runtime_overhead downstream.
                raise SimulationIncompleteError(
                    spec.name,
                    "event queue drained with the kernel still outstanding "
                    f"under downgrade injection (interval "
                    f"{downgrade_interval_cycles:g} cycles, "
                    f"{downgrades[0]} downgrade(s) injected)",
                )
            ticks = end_time[0] - start
            system.gpu.last_kernel_ticks = ticks

        result = collect_result(system, spec.name, trace, ticks)
        result.downgrades = downgrades[0]
        result.border_trace = border_trace
        return result
    finally:
        system.close()


def collect_result(
    system: System, workload_name: str, trace: KernelTrace, ticks: int
) -> RunResult:
    """Extract a RunResult from a finished system."""
    stats = system.stats
    l1_hits = l1_misses = 0
    for cu in range(system.config.num_cus):
        l1_hits += stats.get(f"gpu_l1_{cu}.hits")
        l1_misses += stats.get(f"gpu_l1_{cu}.misses")
    bc = system.border_control
    bcc_stats = (
        bc.stats.child("bcc") if (bc is not None and bc.has_bcc) else None
    )
    l2_domain = "capi_l2" if system.config.safety is SafetyMode.CAPI_LIKE else "gpu_l2"
    return RunResult(
        workload=workload_name,
        safety=system.config.safety,
        threading=system.config.threading,
        ticks=ticks,
        gpu_cycles=system.gpu_clock.ticks_to_cycles(ticks),
        mem_ops=system.gpu.mem_ops,
        blocked_ops=system.gpu.blocked_ops,
        border_checks=bc.checks if bc else 0,
        border_pt_accesses=bc.pt_accesses if bc else 0,
        bcc_hits=bcc_stats.get("hits") if bcc_stats else 0,
        bcc_misses=bcc_stats.get("misses") if bcc_stats else 0,
        ats_translations=system.ats.translations,
        ats_walks=system.ats.walks,
        dram_bytes=system.dram.bytes_served,
        dram_utilization=system.dram.utilization(ticks),
        l1_hits=l1_hits,
        l1_misses=l1_misses,
        l2_hits=stats.get(f"{l2_domain}.hits"),
        l2_misses=stats.get(f"{l2_domain}.misses"),
        l2_writebacks=stats.get(f"{l2_domain}.writebacks"),
        violations=len(system.kernel.violation_log),
        faults_injected=stats.total("injected") + stats.get("ats.injected_faults"),
        retries=stats.total("retries"),
        quarantines=stats.get("kernel.quarantines"),
        recoveries_attempted=stats.get("recovery.attempted"),
        recoveries_succeeded=stats.get("recovery.succeeded"),
        fallback_executions=stats.get("recovery.fallbacks"),
        recovery_ticks=stats.get("recovery.recovery_ticks"),
        # The border engine's count is authoritative (the port's own
        # counter mirrors it); the ATS fence rejects independently.
        stale_epoch_rejections=(bc.stale_epoch_rejections if bc else 0)
        + stats.get("ats.stale_epoch_rejections"),
    )


def runtime_overhead(result: RunResult, baseline: RunResult) -> float:
    """Fig. 4's metric: runtime overhead relative to the unsafe baseline."""
    if baseline.ticks <= 0:
        raise ValueError("baseline has zero runtime")
    return result.ticks / baseline.ticks - 1.0


def geometric_mean(values: List[float]) -> float:
    """Geometric mean of (1 + overhead) factors, returned as an overhead.

    The paper reports geometric-mean runtime overheads; overheads can be
    ~0 so we average the runtime *factors* and convert back.
    """
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= 1.0 + v
    return product ** (1.0 / len(values)) - 1.0
