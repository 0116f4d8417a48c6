"""Experiment runner: build a system, run a workload, collect results.

This is the harness layer the benchmarks and experiments drive. A
:class:`RunResult` carries everything the paper's figures need: elapsed
GPU cycles (runtime), border-crossing counts (Fig. 5), BCC hit ratios
(Fig. 6's full-system counterpart), DRAM traffic, and violation counts.

It also hosts the *chaos* harness (:func:`run_chaos_single`,
:func:`run_chaos_campaign`): seeded fault-injection runs that splice
:class:`~repro.faults.port.FaultyPort` interposers into the hierarchy,
wedge the accelerator mid-kernel, and then assert that the sandbox's
confidentiality/integrity invariants survived and every hang was cleared
by a watchdog or quarantine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.accel.gpu import KernelTrace
from repro.adversary import (
    EscapeTally,
    ProgressWatchdog,
    SecretPage,
    escape_failures,
    record_from_dict,
    record_to_dict,
)
from repro.errors import SimulationIncompleteError
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyPort,
    HangingAccelerator,
    derive_seed,
)
from repro.osmodel.kernel import ViolationPolicy
from repro.sim.config import GPUThreading, SafetyMode, SystemConfig
from repro.sim.engine import TIMEOUT
from repro.sim.system import GPU_ID, System
from repro.supervisor import CampaignKind
from repro.workloads.base import WorkloadSpec, generate_trace
from repro.workloads.registry import get_workload

__all__ = [
    "RunResult",
    "ChaosRunResult",
    "ChaosReport",
    "run_single",
    "run_chaos_single",
    "run_chaos_campaign",
    "CHAOS_CAMPAIGN",
    "chaos_grid",
    "chaos_result_from_dict",
    "chaos_result_to_dict",
    "runtime_overhead",
    "geometric_mean",
    "DEFAULT_CHAOS_WORKLOADS",
    "DEFAULT_CHAOS_KINDS",
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
    border (Fig. 6 replays it); ``downgrade_interval_cycles`` injects a
    full permission downgrade — the Fig. 7 event — every N GPU cycles
    while the kernel runs. The cell's :class:`System` is closed on
    return, so reference counting frees it there.
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
            system.border_port.ppn_recorder = border_trace

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


# ---------------------------------------------------------------------------
# chaos campaigns: fault injection + resilience invariants
# ---------------------------------------------------------------------------

#: Workloads a campaign sweeps by default (small, behaviorally distinct).
DEFAULT_CHAOS_WORKLOADS: Tuple[str, ...] = ("backprop", "bfs", "hotspot")

#: Fault kinds a campaign injects by default.
DEFAULT_CHAOS_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.DROP,
    FaultKind.HANG,
    FaultKind.BIT_FLIP,
    FaultKind.DUP_WRITEBACK,
    FaultKind.ATS_FAULT,
)

def default_fault_specs(
    kinds: Sequence[FaultKind], pt_delay_ticks: int = 0
) -> List[FaultSpec]:
    """The campaign's standard injection rules for the given kinds.

    Sites: ``l2.border`` is the accel-L2 → border hop (data faults live
    here, where corruption is *inside* the sandbox), ``border.mem`` the
    border → DRAM hop (lost/hung responses the port's timeout covers),
    ``border.pt`` the Protection Table fetch path, ``ats`` the
    translation service.
    """
    specs: List[FaultSpec] = []
    for kind in kinds:
        if kind is FaultKind.DROP:
            specs.append(FaultSpec(kind, "border.mem", 0.01))
        elif kind is FaultKind.HANG:
            # Below the border: recovered by the port's deadline+retry.
            specs.append(FaultSpec(kind, "border.mem", 0.003, max_count=3))
            # Above the border: recovered by the supervising watchdog.
            specs.append(FaultSpec(kind, "l2.border", 0.002, max_count=3))
        elif kind is FaultKind.BIT_FLIP:
            specs.append(FaultSpec(kind, "l2.border", 0.02))
        elif kind is FaultKind.DUP_WRITEBACK:
            specs.append(FaultSpec(kind, "l2.border", 0.05))
        elif kind is FaultKind.DELAY:
            specs.append(FaultSpec(kind, "border.pt", 0.01, param=pt_delay_ticks))
        elif kind is FaultKind.ATS_FAULT:
            specs.append(FaultSpec(kind, "ats", 0.08))
    return specs


@dataclass
class ChaosRunResult:
    """One chaos run: the usual measurements plus the invariant verdicts."""

    workload: str
    kinds: Tuple[str, ...]
    seed: int
    result: RunResult
    plan_signature: Tuple[Tuple[str, int, str], ...]
    fault_counts: Dict[str, int]
    trace_ops: int
    probes: int
    conf_escapes: int
    integ_escapes: int
    secret_intact: bool
    completed: bool
    hangs_released: int

    @property
    def progress(self) -> float:
        """Fraction of the trace's memory ops the device actually issued."""
        return self.result.mem_ops / self.trace_ops if self.trace_ops else 0.0

    def invariant_failures(self) -> List[str]:
        """Empty iff the sandbox held. Each entry names a broken invariant."""
        failures = escape_failures(
            self.conf_escapes, self.integ_escapes, self.secret_intact, "probe"
        )
        if not self.completed:
            failures.append("termination: kernel did not complete")
        if self.result.mem_ops == 0:
            failures.append("progress: accelerator issued no memory operations")
        return failures

    @property
    def ok(self) -> bool:
        return not self.invariant_failures()

    def signature(self) -> Tuple:
        """Everything that must replay identically for the same seed."""
        return (
            self.workload,
            self.kinds,
            self.seed,
            self.plan_signature,
            self.result.ticks,
            self.result.mem_ops,
            self.result.blocked_ops,
            self.result.faults_injected,
            self.result.retries,
            self.result.watchdog_fires,
            self.result.quarantines,
            self.probes,
            self.conf_escapes,
            self.integ_escapes,
            self.secret_intact,
            self.completed,
            self.hangs_released,
        )


@dataclass
class ChaosReport:
    """A campaign's invariant report across every (workload, faults) run."""

    seed: int
    runs: List[ChaosRunResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    def invariant_failures(self) -> List[str]:
        out: List[str] = []
        for run in self.runs:
            for failure in run.invariant_failures():
                out.append(f"{run.workload} [{'+'.join(run.kinds)}]: {failure}")
        return out

    def signature(self) -> Tuple:
        return tuple(run.signature() for run in self.runs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "failures": self.invariant_failures(),
            "runs": [
                {
                    "workload": run.workload,
                    "kinds": list(run.kinds),
                    "seed": run.seed,
                    "ok": run.ok,
                    "faults_injected": run.result.faults_injected,
                    "fault_counts": run.fault_counts,
                    "retries": run.result.retries,
                    "watchdog_fires": run.result.watchdog_fires,
                    "quarantines": run.result.quarantines,
                    "hangs_released": run.hangs_released,
                    "probes": run.probes,
                    "conf_escapes": run.conf_escapes,
                    "integ_escapes": run.integ_escapes,
                    "secret_intact": run.secret_intact,
                    "completed": run.completed,
                    "progress": run.progress,
                    "ticks": run.result.ticks,
                }
                for run in self.runs
            ],
        }

    def render(self) -> str:
        """Human-readable invariant report."""
        lines = [
            f"chaos campaign (seed {self.seed}): "
            f"{len(self.runs)} runs, {'PASS' if self.ok else 'FAIL'}",
            f"{'workload':<12} {'faults':<32} {'inj':>5} {'retry':>5} "
            f"{'wdog':>4} {'quar':>4} {'esc':>3} {'prog':>6}  status",
        ]
        for run in self.runs:
            escapes = run.conf_escapes + run.integ_escapes
            if not run.secret_intact:
                escapes += 1
            lines.append(
                f"{run.workload:<12} {'+'.join(run.kinds):<32} "
                f"{run.result.faults_injected:>5} {run.result.retries:>5} "
                f"{run.result.watchdog_fires:>4} {run.result.quarantines:>4} "
                f"{escapes:>3} {run.progress:>6.0%}  "
                f"{'ok' if run.ok else 'FAIL'}"
            )
        total_faults = sum(run.result.faults_injected for run in self.runs)
        total_probes = sum(run.probes for run in self.runs)
        lines.append(
            f"invariants: {total_faults} faults injected, "
            f"{total_probes} rogue probes, "
            f"{sum(r.conf_escapes for r in self.runs)} confidentiality escapes, "
            f"{sum(r.integ_escapes for r in self.runs)} integrity escapes"
        )
        for failure in self.invariant_failures():
            lines.append(f"  FAIL {failure}")
        return "\n".join(lines)


def run_chaos_single(
    workload: str,
    kinds: Sequence[FaultKind],
    seed: int = 1234,
    safety: SafetyMode = SafetyMode.BC_BCC,
    threading: GPUThreading = GPUThreading.MODERATELY,
    ops_scale: float = 1.0,
    config: Optional[SystemConfig] = None,
    workload_spec: Optional[WorkloadSpec] = None,
    plan: Optional[FaultPlan] = None,
    hang_accelerator: Optional[bool] = None,
    watchdog_cycles: float = 50_000.0,
    request_timeout_cycles: float = 10_000.0,
    quarantine_backoff_cycles: float = 25_000.0,
    probe_interval_cycles: float = 4_000.0,
    max_stalled_fires: int = 8,
) -> ChaosRunResult:
    """One seeded fault-injection run with live invariant probing.

    Alongside the faulted workload, a *victim* process (never granted to
    the accelerator) holds the :class:`~repro.adversary.SecretPage`. A
    trusted prober fires one read and one write at it through the border
    port every ``probe_interval_cycles`` while faults are landing, and
    once more after the run, so a run shorter than one interval is still
    probed. Any probe read returning data is a confidentiality escape;
    any committed probe write (or changed secret bytes) an integrity
    escape. A supervisor process watches for lost forward progress and
    recovers hangs — first by failing hung accesses out of the faulty
    ports, then by quarantining the accelerator.
    """
    if not safety.uses_border_control:
        raise ValueError("chaos runs require a Border Control configuration")
    workload_spec = workload_spec or get_workload(workload)
    cfg = (config or SystemConfig()).with_safety(safety).with_threading(threading)
    system = System(cfg, violation_policy=ViolationPolicy.QUARANTINE)
    try:
        engine = system.engine
        kernel = system.kernel
        ticks_of = system.gpu_clock.cycles_to_ticks
        kernel.quarantine_backoff_ticks = ticks_of(quarantine_backoff_cycles)

        # Fleet-network kinds belong to repro.fleet's transport, not to the
        # simulation; dropping them keeps chaos signatures independent of
        # which transport kinds exist.
        kinds = tuple(k for k in kinds if not k.fleet_only)
        if plan is None:
            plan = FaultPlan(seed, default_fault_specs(kinds, ticks_of(200.0)))

        # Splice the interposers: accel L2 -> [l2.border] -> border port ->
        # [border.mem] -> memory controller; plus the PT-fetch and ATS hooks.
        fault_stats = system.stats.child("faults")
        border = system.border_port
        assert border is not None and system.gpu_l2 is not None
        port_below = FaultyPort(
            engine, system.memctl, plan, "border.mem", fault_stats.child("border_mem")
        )
        port_above = FaultyPort(
            engine, border, plan, "l2.border", fault_stats.child("l2_border")
        )
        border.downstream = port_below
        system.gpu_l2.downstream = port_above
        faulty_ports = [port_above, port_below]
        border.request_timeout_ticks = ticks_of(request_timeout_cycles)
        border.retry_backoff_ticks = ticks_of(1_000.0)

        pt_injector = plan.for_site("border.pt")

        def pt_fault() -> int:
            spec = pt_injector.draw()
            return spec.param if spec is not None else 0

        border.pt_fault_hook = pt_fault

        ats_injector = plan.for_site("ats")
        system.ats.fault_injector = lambda: ats_injector.draw() is not None
        system.ats.config = replace(
            system.ats.config, max_retries=3, retry_backoff_ticks=ticks_of(100.0)
        )

        if hang_accelerator is None:
            hang_accelerator = FaultKind.HANG in kinds
        hanging = HangingAccelerator.install(system) if hang_accelerator else None

        # The victim: a process that never touches the accelerator.
        secret = SecretPage(kernel, system.new_process("victim"))

        proc = system.new_process(workload_spec.name)
        system.attach_process(proc)
        trace = generate_trace(
            workload_spec, kernel, proc, threading, seed=seed, ops_scale=ops_scale
        )
        if hanging is not None:
            hanging.arm(trace)

        start = engine.now
        done = system.gpu.launch(proc.asid, trace)
        end_time = [start]

        def watcher() -> object:
            yield done
            end_time[0] = engine.now

        # The prober: sustained trusted probes of the secret page through
        # the accelerator's border checkpoint, racing the injected faults.
        probe_interval = max(1, ticks_of(probe_interval_cycles))
        tally = EscapeTally()

        def prober() -> object:
            while not done.triggered:
                yield probe_interval
                if done.triggered:
                    return
                yield from tally.trusted_probe(kernel, border, secret.paddr)

        # The supervisor: a progress-tracking watchdog. A fire with no new
        # issued/completed operations means the device is wedged; recovery
        # escalates from failing hung port accesses out to quarantining the
        # accelerator (which resets and re-enables it after backoff).
        watchdog_ticks = max(1, ticks_of(watchdog_cycles))
        watchdog = ProgressWatchdog(GPU_ID, max_stalled_fires)

        def release_hangs() -> bool:
            return sum(port.release_hangs() for port in faulty_ports) > 0

        def supervisor() -> object:
            while not done.triggered:
                outcome = yield engine.deadline(done, watchdog_ticks)
                if outcome is not TIMEOUT:
                    return
                if watchdog.fired(system.gpu.mem_ops + system.gpu.blocked_ops):
                    watchdog.recovered(
                        release_hangs()
                        or kernel.quarantine_accelerator(
                            GPU_ID, "watchdog: accelerator stopped making progress"
                        )
                    )

        engine.process(watcher(), name="chaos-watcher")
        engine.process(prober(), name="chaos-prober")
        engine.process(supervisor(), name="chaos-supervisor")
        engine.run()

        completed = bool(done.triggered)
        ticks = end_time[0] - start

        # Detach-style flush (Fig. 3e): drain the accelerator's dirty lines
        # through the border so writeback-path faults (duplicated, dropped,
        # or hung writebacks — and, after a quarantine, *blocked* stale
        # writebacks) are exercised even when the kernel's working set never
        # overflowed the L2. Hung flush accesses are released on a deadline
        # so the flush always terminates.
        flush_proc = engine.process(system.gpu.flush_caches(), name="chaos-flush")

        def flush_guard() -> object:
            while not flush_proc.triggered:
                outcome = yield engine.deadline(flush_proc, watchdog_ticks)
                if outcome is not TIMEOUT:
                    return
                watchdog.fired()  # a flush has no progress measure
                watchdog.recovered(release_hangs())

        engine.process(flush_guard(), name="chaos-flush-guard")
        engine.run()
        # One last probe after everything else: a run shorter than one probe
        # interval still tests the border, and ``ticks`` cannot move.
        engine.run_process(
            tally.trusted_probe(kernel, border, secret.paddr), name="chaos-final-probe"
        )
        system.gpu.last_kernel_ticks = ticks
        result = collect_result(system, workload_spec.name, trace, ticks)
        result.faults_injected = plan.total_injected
        result.watchdog_fires = watchdog.fires

        return ChaosRunResult(
            workload=workload_spec.name,
            kinds=tuple(kind.value for kind in kinds),
            seed=seed,
            result=result,
            plan_signature=plan.signature(),
            fault_counts=plan.counts_by_kind(),
            trace_ops=trace.total_mem_ops,
            probes=tally.probes,
            conf_escapes=tally.conf,
            integ_escapes=tally.integ,
            secret_intact=secret.intact(),
            completed=completed,
            hangs_released=fault_stats.total("released_hangs"),
        )
    finally:
        system.close()


def chaos_grid(
    workloads: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[FaultKind]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
    quick: bool = False,
) -> List[Dict[str, object]]:
    """The campaign's declarative grid: one kwargs dict per chaos run.

    Each workload runs once per fault kind (isolating each failure mode)
    plus once under the full mix. Every run gets a sub-seed derived from
    ``(seed, workload, kinds)``, so a campaign is a pure function of its
    arguments regardless of execution order or parallelism.
    """
    workloads = list(workloads or DEFAULT_CHAOS_WORKLOADS)
    kinds = [k for k in (kinds or DEFAULT_CHAOS_KINDS) if not k.fleet_only]
    if quick:
        ops_scale = min(ops_scale, 0.25)
    cells: List[Dict[str, object]] = []
    for workload in workloads:
        mixes = [[kind] for kind in kinds]
        if len(kinds) > 1:
            mixes.append(list(kinds))
        for mix in mixes:
            mix_name = "+".join(kind.value for kind in mix)
            cells.append(
                dict(
                    workload=workload,
                    kinds=list(mix),
                    seed=derive_seed(seed, workload, mix_name),
                    ops_scale=ops_scale,
                )
            )
    return cells


def _chaos_cell(kwargs: Dict[str, object]) -> ChaosRunResult:
    """Picklable worker entry point for one chaos grid cell."""
    return run_chaos_single(**kwargs)  # type: ignore[arg-type]


def _chaos_recipe(cell: Dict[str, object]) -> Dict[str, object]:
    """The JSON replay recipe of one chaos grid cell (``replay-cell``)."""
    return {
        "workload": cell["workload"],
        "kinds": [k.value for k in cell["kinds"]],  # type: ignore[union-attr]
        "seed": cell["seed"],
        "ops_scale": cell["ops_scale"],
    }


def _chaos_cell_of(recipe: Dict[str, object]) -> Dict[str, object]:
    """The grid cell of a chaos recipe: kind names back to :class:`FaultKind`."""
    kinds = [FaultKind(k) for k in recipe["kinds"]]  # type: ignore[union-attr]
    return dict(recipe, kinds=kinds)


def _chaos_cell_label(cell: Dict[str, object]) -> str:
    return "{}[{}]".format(
        cell["workload"],
        "+".join(k.value for k in cell["kinds"]),  # type: ignore[union-attr]
    )


def chaos_result_to_dict(run: ChaosRunResult) -> Dict[str, object]:
    """Lossless JSON form of one chaos run (journal checkpointing)."""
    return record_to_dict(run)


def chaos_result_from_dict(data: Dict[str, object]) -> ChaosRunResult:
    """Rehydrate a journaled chaos run; inverse of :func:`chaos_result_to_dict`."""
    return record_from_dict(ChaosRunResult, data)


#: Chaos campaigns as plain data for :func:`repro.sweep.run_campaign`.
CHAOS_CAMPAIGN = CampaignKind(
    name="chaos",
    cell_fn=_chaos_cell,
    label_of=_chaos_cell_label,
    recipe_of=_chaos_recipe,
    cell_of=_chaos_cell_of,
    to_dict=chaos_result_to_dict,
    from_dict=chaos_result_from_dict,
)


def run_chaos_campaign(
    workloads: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[FaultKind]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
    quick: bool = False,
    workers: Optional[int] = 1,
    policy=None,
    journal=None,
    should_abort=None,
) -> ChaosReport:
    """Sweep fault kinds across workloads; returns the invariant report.

    The :func:`chaos_grid` cells run through
    :func:`repro.sweep.run_campaign` — in-process for ``workers <= 1``,
    on a supervised pool otherwise (``None`` = every core). Per-run
    sub-seeding makes the report identical whatever the execution order:
    the same seed reproduces the same :meth:`ChaosReport.signature`.
    With a ``journal`` every finished run is checkpointed as it lands,
    and a resumed campaign re-executes only the missing cells. A failed
    cell raises :class:`~repro.errors.SweepError` (every cell's outcome
    attached) once the others have run, and a ``should_abort`` that
    turns true raises :class:`~repro.errors.JobCancelled`.
    """
    from repro.sweep import run_campaign  # local: repro.sweep imports this module

    cells = chaos_grid(workloads, kinds, seed=seed, ops_scale=ops_scale, quick=quick)
    report = run_campaign(
        cells,
        CHAOS_CAMPAIGN,
        workers=workers,
        policy=policy,
        journal=journal,
        should_abort=should_abort,
    )
    return ChaosReport(seed=seed, runs=report.results)
