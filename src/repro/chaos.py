"""Chaos campaigns: seeded fault injection with live invariant checks.

:func:`run_chaos_single` splices :class:`~repro.faults.port.FaultyPort`
interposers into one simulated system, wedges the accelerator
mid-kernel, and then asserts that the sandbox's confidentiality and
integrity invariants survived and that every hang was cleared by a
watchdog or a quarantine. :func:`run_chaos_campaign` sweeps fault kinds
across workloads through :func:`repro.sweep.run_campaign`, the driver
the sweep and recovery campaigns share (:data:`CHAOS_CAMPAIGN` is the
kind); :mod:`repro.recovery` is its sibling for the recovery stages.

This is a host layer over the simulator: :mod:`repro.sim.runner` runs
one plain cell and imports nothing from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversary import (
    EscapeTally,
    ProgressWatchdog,
    SecretPage,
    escape_failures,
    record_from_dict,
    record_to_dict,
)
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
from repro.sim.runner import RunResult, collect_result
from repro.sim.system import GPU_ID, System
from repro.supervisor import CampaignKind
from repro.sweep import run_campaign
from repro.workloads.base import WorkloadSpec, generate_trace
from repro.workloads.registry import get_workload

__all__ = [
    "CHAOS_CAMPAIGN",
    "ChaosReport",
    "ChaosRunResult",
    "DEFAULT_CHAOS_KINDS",
    "DEFAULT_CHAOS_WORKLOADS",
    "chaos_grid",
    "chaos_result_from_dict",
    "chaos_result_to_dict",
    "default_fault_specs",
    "run_chaos_campaign",
    "run_chaos_single",
]

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
