"""End-to-end violation recovery — close the loop after containment.

Border Control's containment story (quarantine + sandbox downgrade,
§3.2.3/§3.2.4) leaves the interrupted workload dead in the water. This
subsystem adds the *recover* and *degrade* stages of the pipeline:

* **Epoch-fenced reset** — every attach and every reset advances the
  sandbox's attach epoch (:meth:`BorderControl.advance_epoch`);
  :meth:`Kernel.reset_accelerator` advances the epoch *before* touching
  the device, so anything the pre-reset hardware still replays — queued
  writebacks, half-issued DMA — carries a stale epoch and dies at the
  border (``stale_epoch_rejections``) without a permission lookup.
* **Kernel retry with CPU fallback** — :class:`RecoveryManager` resets
  the device and relaunches the victim's interrupted kernel under a
  bounded retry budget with exponential backoff; when the budget is
  exhausted the kernel trace is flattened into a :class:`CPUProgram`
  and executed on the trusted CPU — slower, but the process completes
  instead of dying.
* **Violation-storm circuit breaker** — ``Kernel.violation_storm_threshold``
  escalates repeated strikes to a permanent quarantine plus
  ``KILL_PROCESS``; the recovery loop reports those victims as
  explicitly ``killed`` rather than lost.
* **Multi-tenant forward progress** — an unaffected CPU tenant keeps
  iterating through the whole recovery window; the harness asserts its
  per-iteration slowdown stays within tolerance.

The campaign (:func:`run_recovery_campaign`) sweeps scenarios —
``hang``, ``rogue-write``, ``reset-replay``, ``storm`` — across
workloads with per-cell sub-seeds, through the same campaign driver as
the chaos campaign (:func:`repro.sweep.run_campaign`): the same seed
reproduces the same :meth:`RecoveryReport.signature`, serial or
parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accel.gpu import KernelTrace
from repro.adversary import (
    EscapeTally,
    ProgressWatchdog,
    SecretPage,
    escape_failures,
    record_from_dict,
    record_to_dict,
)
from repro.core.permissions import Perm
from repro.cpu.core import CPUProgram
from repro.errors import AcceleratorDisabledError
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    HangingAccelerator,
    RecordingPort,
    ReplayBuffer,
    derive_seed,
)
from repro.mem.address import BLOCK_SIZE, PAGE_SIZE
from repro.osmodel.kernel import ViolationPolicy
from repro.sim.config import GPUThreading, SafetyMode, SystemConfig
from repro.sim.runner import RunResult, collect_result
from repro.sim.system import GPU_ID, System
from repro.supervisor import CampaignKind
from repro.sweep import run_campaign
from repro.workloads.base import WorkloadSpec, generate_trace
from repro.workloads.registry import get_workload

__all__ = [
    "RecoveryPolicy",
    "RecoveryManager",
    "RecoveryRunResult",
    "RecoveryReport",
    "trace_to_cpu_program",
    "run_recovery_single",
    "run_recovery_campaign",
    "RECOVERY_CAMPAIGN",
    "recovery_grid",
    "recovery_result_to_dict",
    "recovery_result_from_dict",
    "DEFAULT_RECOVERY_WORKLOADS",
    "RECOVERY_SCENARIOS",
]


#: Workloads a recovery campaign sweeps by default.
DEFAULT_RECOVERY_WORKLOADS: Tuple[str, ...] = ("backprop", "bfs")

#: The disruption scenarios a campaign exercises. Each cell stages one
#: scenario and asserts the matching end state (see EXPECTED_OUTCOMES).
RECOVERY_SCENARIOS: Tuple[str, ...] = (
    "hang",
    "rogue-write",
    "reset-replay",
    "fallback",
    "storm",
)

#: The outcomes each scenario is allowed to end in. ``completed`` never
#: appears: a cell whose disruption failed to trigger tests nothing and
#: is reported as a harness failure. ``fallback`` stages a device that
#: re-wedges after every reset, so the retry budget must exhaust and the
#: victim must degrade to the CPU.
EXPECTED_OUTCOMES: Dict[str, Tuple[str, ...]] = {
    "hang": ("retried", "fallback"),
    "rogue-write": ("retried", "fallback"),
    "reset-replay": ("retried", "fallback"),
    "fallback": ("fallback",),
    "storm": ("killed",),
}


@dataclass(frozen=True)
class RecoveryPolicy:
    """How far the kernel goes to keep a victim process alive."""

    max_retries: int = 3
    retry_backoff_cycles: float = 5_000.0  # doubles per failed attempt
    cpu_fallback: bool = True
    cpu_op_gap_cycles: int = 2  # compute gap per fallback CPU op


def trace_to_cpu_program(trace: KernelTrace, gap_cycles: int = 2) -> CPUProgram:
    """Flatten a GPU kernel trace into a sequential CPU instruction stream.

    The degraded path: every wavefront's operations run back-to-back on
    one in-order core — functionally equivalent work, none of the GPU's
    latency-hiding parallelism.
    """
    ops = []
    for cu in trace.cu_wavefronts:
        for wavefront in cu:
            for _gap, vaddr, write in wavefront:
                ops.append((gap_cycles, vaddr, write))
    return CPUProgram(name=f"fallback-{trace.name}", ops=ops)


class RecoveryManager:
    """Drives the reset → retry → degrade sequence for one victim."""

    def __init__(
        self,
        system: System,
        policy: RecoveryPolicy = RecoveryPolicy(),
        replay_hook=None,
    ) -> None:
        self.system = system
        self.policy = policy
        # Called with the pre-reset epoch right after every reset; the
        # reset-replay scenario uses it to drain recorded writebacks at
        # the stale epoch (all of which must die at the fence).
        self.replay_hook = replay_hook
        self.backoff_ticks = system.gpu_clock.cycles_to_ticks(
            policy.retry_backoff_cycles
        )
        stats = system.stats.child("recovery")
        self._attempted = stats.counter("attempted")
        self._succeeded = stats.counter("succeeded")
        self._fallbacks = stats.counter("fallbacks")
        self._retries = stats.counter("retries")
        self._recovery_ticks = stats.counter("recovery_ticks")
        # True while a (re)launched kernel is outstanding; the harness
        # watchdog only intervenes inside that window.
        self.launch_active = False

    def _observe(self, stage: str, **info) -> None:
        """Emit one step of the detect → contain → recover → degrade
        pipeline as a ``recovery`` event on the machine's stream."""
        self.system.events.emit("recovery", stage, info)

    # The recovery loop is a simulation generator so retries, backoff
    # waits, and the fallback execution all consume simulated time and
    # interleave with unaffected tenants.

    def recover_g(self, proc, trace: KernelTrace):
        """Recover one interrupted kernel; returns the outcome string:
        ``retried`` | ``fallback`` | ``killed`` | ``failed``."""
        system = self.system
        engine = system.engine
        kernel = system.kernel
        start = engine.now
        backoff = self.backoff_ticks
        for attempt in range(1, self.policy.max_retries + 1):
            if not proc.alive:
                break
            self._attempted.inc()
            old_epoch = getattr(system.gpu, "epoch", 0)
            kernel.reset_accelerator(GPU_ID)
            self._observe("reset", attempt=attempt, stale_epoch=old_epoch)
            if self.replay_hook is not None:
                # The pre-reset device drains its queues *now*, under the
                # epoch that just became stale.
                yield from self.replay_hook(old_epoch)
            if not proc.alive:
                break
            try:
                done = system.gpu.launch(proc.asid, trace)
            except AcceleratorDisabledError:
                done = None
            if done is not None:
                self._observe("relaunch", attempt=attempt)
                self.launch_active = True
                yield done
                self.launch_active = False
                if (
                    system.gpu.enabled
                    and not kernel.is_quarantined(GPU_ID)
                    and proc.alive
                ):
                    self._succeeded.inc()
                    self._recovery_ticks.inc(engine.now - start)
                    self._observe("outcome", outcome="retried")
                    return "retried"
            if not proc.alive:
                break
            if attempt < self.policy.max_retries:
                self._retries.inc()
                self._observe("retry", attempt=attempt)
                if backoff:
                    yield backoff
                backoff *= 2
        self._recovery_ticks.inc(engine.now - start)
        if not proc.alive:
            self._observe("outcome", outcome="killed")
            return "killed"
        if self.policy.cpu_fallback:
            # Degrade: the retry budget is spent; finish the work on the
            # trusted CPU so the process completes instead of dying.
            self._fallbacks.inc()
            program = trace_to_cpu_program(trace, self.policy.cpu_op_gap_cycles)
            yield from system.cpu.run_program(proc, program)
            self._observe("outcome", outcome="fallback")
            return "fallback"
        self._observe("outcome", outcome="failed")
        return "failed"


# ---------------------------------------------------------------------------
# single recovery run
# ---------------------------------------------------------------------------


def recovery_fault_specs(scenario: str) -> List[FaultSpec]:
    """The seeded injection rules for one scenario. ``hang`` needs none
    (the wedge comes from :class:`HangingAccelerator`); the others drive
    harness-interpreted kinds at dedicated sites."""
    if scenario == "rogue-write":
        return [FaultSpec(FaultKind.ROGUE_WRITE, "accel.rogue", 1.0, max_count=3)]
    if scenario == "reset-replay":
        return [
            FaultSpec(FaultKind.RESET_REPLAY, "border.replay", 1.0, max_count=32)
        ]
    if scenario == "storm":
        return [FaultSpec(FaultKind.ROGUE_WRITE, "accel.rogue", 1.0, max_count=12)]
    return []


@dataclass
class RecoveryRunResult:
    """One recovery run: measurements plus the recovery verdicts."""

    workload: str
    scenario: str
    seed: int
    result: RunResult
    plan_signature: Tuple[Tuple[str, int, str], ...]
    fault_counts: Dict[str, int]
    trace_ops: int
    outcome: str  # completed | retried | fallback | killed | failed
    victim_alive: bool
    victim_exit_reason: Optional[str]
    rogue_writes: int
    rogue_conf_escapes: int
    rogue_integ_escapes: int
    replayed: int
    replay_commits: int
    secret_intact: bool
    resets: int
    watchdog_fires: int
    tenant_iterations: int
    tenant_baseline_ticks: int
    tenant_max_iteration_ticks: int
    tenant_tolerance: float = 8.0

    @property
    def tenant_slowdown(self) -> float:
        """Worst contended tenant iteration relative to its solo baseline."""
        if not self.tenant_baseline_ticks:
            return 0.0
        return self.tenant_max_iteration_ticks / self.tenant_baseline_ticks

    def invariant_failures(self) -> List[str]:
        """Empty iff detect → contain → recover → degrade all held."""
        failures = escape_failures(
            self.rogue_conf_escapes,
            self.rogue_integ_escapes,
            self.secret_intact,
            "rogue",
        )
        if self.replay_commits:
            failures.append(
                f"integrity: {self.replay_commits} stale-epoch replay(s) committed"
            )
        if self.outcome == "completed":
            failures.append(
                f"harness: scenario {self.scenario!r} never disrupted the kernel"
            )
        elif self.outcome not in EXPECTED_OUTCOMES.get(self.scenario, ()):
            failures.append(
                f"recovery: outcome {self.outcome!r} not in "
                f"{EXPECTED_OUTCOMES.get(self.scenario, ())} for {self.scenario!r}"
            )
        if self.scenario == "reset-replay" and not self.result.stale_epoch_rejections:
            failures.append(
                "epoch fence: no stale-epoch rejections recorded under replay"
            )
        if self.tenant_iterations == 0:
            failures.append("forward progress: tenant completed no iterations")
        elif self.tenant_slowdown > self.tenant_tolerance:
            failures.append(
                f"forward progress: tenant slowdown {self.tenant_slowdown:.1f}x "
                f"exceeds {self.tenant_tolerance:.1f}x tolerance"
            )
        return failures

    @property
    def ok(self) -> bool:
        return not self.invariant_failures()

    def signature(self) -> Tuple:
        """Everything that must replay identically for the same seed."""
        return (
            self.workload,
            self.scenario,
            self.seed,
            self.plan_signature,
            self.outcome,
            self.victim_alive,
            self.result.ticks,
            self.result.mem_ops,
            self.result.blocked_ops,
            self.result.quarantines,
            self.result.recoveries_attempted,
            self.result.recoveries_succeeded,
            self.result.fallback_executions,
            self.result.recovery_ticks,
            self.result.stale_epoch_rejections,
            self.rogue_writes,
            self.rogue_conf_escapes,
            self.rogue_integ_escapes,
            self.replayed,
            self.replay_commits,
            self.secret_intact,
            self.resets,
            self.watchdog_fires,
            self.tenant_iterations,
            self.tenant_baseline_ticks,
            self.tenant_max_iteration_ticks,
        )


def run_recovery_single(
    workload: str,
    scenario: str,
    seed: int = 1234,
    safety: SafetyMode = SafetyMode.BC_BCC,
    threading: GPUThreading = GPUThreading.MODERATELY,
    ops_scale: float = 1.0,
    config: Optional[SystemConfig] = None,
    workload_spec: Optional[WorkloadSpec] = None,
    policy: Optional[RecoveryPolicy] = None,
    watchdog_cycles: float = 50_000.0,
    quarantine_backoff_cycles: float = 20_000.0,
    rogue_interval_cycles: float = 250.0,
    storm_threshold: int = 3,
    tenant_tolerance: float = 8.0,
    max_stalled_fires: int = 8,
) -> RecoveryRunResult:
    """One seeded end-to-end recovery run.

    A victim process launches the workload's GPU kernel and is disrupted
    per ``scenario``; the harness then drives the full recovery pipeline
    — watchdog detection, quarantine containment, epoch-fenced reset,
    bounded retry, CPU fallback or circuit-breaker kill. A secret holder
    (never granted to the accelerator) owns the
    :class:`~repro.adversary.SecretPage`: the rogue scenarios shoot at it
    during the run, and every scenario ends with one trusted probe of it
    after the run, so confidentiality and integrity are tested in each.
    An unaffected CPU tenant iterates throughout; its worst iteration is
    compared against a warm solo baseline (forward progress).
    """
    if scenario not in RECOVERY_SCENARIOS:
        raise ValueError(f"unknown recovery scenario {scenario!r}")
    if not safety.uses_border_control:
        raise ValueError("recovery runs require a Border Control configuration")
    workload_spec = workload_spec or get_workload(workload)
    policy = policy or RecoveryPolicy()
    cfg = (config or SystemConfig()).with_safety(safety).with_threading(threading)
    system = System(cfg, violation_policy=ViolationPolicy.QUARANTINE)
    try:
        engine = system.engine
        kernel = system.kernel
        ticks_of = system.gpu_clock.cycles_to_ticks
        kernel.quarantine_backoff_ticks = ticks_of(quarantine_backoff_cycles)
        if scenario == "storm":
            kernel.violation_storm_threshold = storm_threshold

        plan = FaultPlan(seed, recovery_fault_specs(scenario))
        border = system.border_port
        assert border is not None and system.gpu_l2 is not None

        hanging = None
        if scenario in ("hang", "reset-replay", "fallback"):
            hanging = HangingAccelerator.install(system)

        replay_buffer: Optional[ReplayBuffer] = None
        if scenario == "reset-replay":
            replay_buffer = ReplayBuffer()
            system.gpu_l2.downstream = RecordingPort(border, replay_buffer)

        # The secret holder: a process never granted to the accelerator.
        secret = SecretPage(kernel, system.new_process("secret-holder"))

        # The victim: the GPU workload whose kernel gets interrupted.
        victim = system.new_process(workload_spec.name)
        system.attach_process(victim)
        trace = generate_trace(
            workload_spec, kernel, victim, threading, seed=seed, ops_scale=ops_scale
        )
        if hanging is not None:
            hanging.arm(trace)

        # The unaffected tenant: CPU-only work whose forward progress must
        # not depend on the victim's recovery. Baseline measured solo,
        # before any disruption exists, and warm: the first run misses in
        # every cache, and every later one, contended or not, does not.
        tenant = system.new_process("tenant")
        tenant_vaddr = kernel.mmap(tenant, 4, Perm.RW)
        tenant_program = CPUProgram(
            name="tenant-loop",
            ops=CPUProgram.memset(tenant_vaddr, 4 * PAGE_SIZE, gap=4).ops
            + CPUProgram.memscan(tenant_vaddr, 4 * PAGE_SIZE, gap=4).ops,
        )
        system.cpu.execute(tenant, tenant_program)
        tenant_baseline = system.cpu.execute(tenant, tenant_program)
        tenant_stats = {"iterations": 0, "max_ticks": 0}

        replay_stats = {"replayed": 0, "commits": 0}
        replay_injector = plan.for_site("border.replay")

        def replay_stale(old_epoch: int):
            """Drain the pre-reset device's recorded queue at the old epoch."""
            writes = list(replay_buffer.writes) if replay_buffer else []
            if not writes:
                # Nothing crossed the border before the wedge; the queued DMA
                # burst still exists — model it as one arbitrary stale write.
                writes = [(secret.paddr, BLOCK_SIZE, b"\xaa" * BLOCK_SIZE)]
            for addr, size, data in writes:
                spec = replay_injector.draw(write=True)
                if spec is None:
                    continue
                replay_stats["replayed"] += 1
                committed = yield from border.access(
                    addr,
                    size or BLOCK_SIZE,
                    True,
                    data or b"\x00" * (size or BLOCK_SIZE),
                    epoch=old_epoch,
                )
                if committed is not None:
                    replay_stats["commits"] += 1

        def rearm_wedge(old_epoch: int):
            # The post-reset device is still broken: it wedges again a third
            # of the way into every relaunch, so the retry budget exhausts
            # and recovery must degrade to the CPU.
            hanging.arm(trace)
            return
            yield  # pragma: no cover - empty generator

        post_reset_hooks = {"reset-replay": replay_stale, "fallback": rearm_wedge}
        manager = RecoveryManager(
            system,
            policy,
            replay_hook=post_reset_hooks.get(scenario),
        )

        resolved = [False]
        outcome_box = ["failed"]
        start = engine.now
        end_time = [start]

        def victim_driver():
            try:
                manager.launch_active = True
                done = system.gpu.launch(victim.asid, trace)
            except AcceleratorDisabledError:
                done = None
            if done is not None:
                yield done
            manager.launch_active = False
            healthy = (
                done is not None
                and system.gpu.enabled
                and not kernel.is_quarantined(GPU_ID)
                and victim.alive
            )
            if healthy:
                outcome_box[0] = "completed"
            else:
                outcome_box[0] = yield from manager.recover_g(victim, trace)
            resolved[0] = True
            end_time[0] = engine.now

        # The rogue driver: the misbehaving device firing border requests at
        # the secret holder's page — real violations, really sanctioned
        # (unlike the chaos prober, this models the accelerator itself).
        # Injections are paced by *device progress*, not wall time: one
        # eligible shot per ``ops_step`` of retired kernel work, so short
        # traces and long ones see proportionally timed rogue bursts.
        rogue = EscapeTally()
        rogue_injector = plan.for_site("accel.rogue")
        rogue_poll = max(1, ticks_of(rogue_interval_cycles))
        ops_step = max(4, trace.total_mem_ops // 8)
        next_fire = [ops_step]

        def rogue_driver():
            while not resolved[0]:
                yield rogue_poll
                if resolved[0]:
                    return
                if not system.gpu.enabled or not victim.alive:
                    continue
                if system.gpu.mem_ops < next_fire[0]:
                    continue
                next_fire[0] = system.gpu.mem_ops + ops_step
                if rogue_injector.draw(write=True) is not None:
                    yield from rogue.probe(border, secret.paddr)

        def tenant_driver():
            while not resolved[0]:
                t0 = engine.now
                yield from system.cpu.run_program(tenant, tenant_program)
                elapsed = engine.now - t0
                tenant_stats["iterations"] += 1
                tenant_stats["max_ticks"] = max(tenant_stats["max_ticks"], elapsed)

        # Progress watchdog: quarantines the device when an outstanding
        # launch stops issuing (a wedge the violation path cannot see).
        watchdog_ticks = max(1, ticks_of(watchdog_cycles))
        watchdog = ProgressWatchdog(GPU_ID, max_stalled_fires)

        def supervisor():
            while not resolved[0]:
                yield watchdog_ticks
                if resolved[0]:
                    return
                if not manager.launch_active:
                    continue
                if not watchdog.fired(system.gpu.mem_ops + system.gpu.blocked_ops):
                    continue
                quarantined = kernel.quarantine_accelerator(
                    GPU_ID, "recovery watchdog: accelerator stopped making progress"
                )
                if not quarantined:
                    # Already quarantined yet still wedged: force the release.
                    system.gpu.disable()
                watchdog.recovered(quarantined)

        engine.process(victim_driver(), name="recovery-victim")
        if scenario in ("rogue-write", "storm"):
            engine.process(rogue_driver(), name="recovery-rogue")
        engine.process(tenant_driver(), name="recovery-tenant")
        engine.process(supervisor(), name="recovery-supervisor")
        engine.run()
        # End with one trusted probe, as chaos does, so every scenario tests
        # the border. Its escapes join the rogue's; rogue_writes counts shots.
        shots = rogue.probes
        engine.run_process(
            rogue.trusted_probe(kernel, border, secret.paddr),
            name="recovery-final-probe",
        )

        ticks = end_time[0] - start
        system.gpu.last_kernel_ticks = ticks
        result = collect_result(system, workload_spec.name, trace, ticks)
        result.faults_injected = plan.total_injected
        result.watchdog_fires = watchdog.fires

        return RecoveryRunResult(
            workload=workload_spec.name,
            scenario=scenario,
            seed=seed,
            result=result,
            plan_signature=plan.signature(),
            fault_counts=plan.counts_by_kind(),
            trace_ops=trace.total_mem_ops,
            outcome=outcome_box[0],
            victim_alive=victim.alive,
            victim_exit_reason=victim.exit_reason,
            rogue_writes=shots,
            rogue_conf_escapes=rogue.conf,
            rogue_integ_escapes=rogue.integ,
            replayed=replay_stats["replayed"],
            replay_commits=replay_stats["commits"],
            secret_intact=secret.intact(),
            resets=system.stats.get("kernel.resets"),
            watchdog_fires=watchdog.fires,
            tenant_iterations=tenant_stats["iterations"],
            tenant_baseline_ticks=tenant_baseline,
            tenant_max_iteration_ticks=tenant_stats["max_ticks"],
            tenant_tolerance=tenant_tolerance,
        )
    finally:
        system.close()


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """A campaign's verdicts across every (workload, scenario) cell."""

    seed: int
    runs: List[RecoveryRunResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def stale_epoch_rejections(self) -> int:
        return sum(run.result.stale_epoch_rejections for run in self.runs)

    def invariant_failures(self) -> List[str]:
        out: List[str] = []
        for run in self.runs:
            for failure in run.invariant_failures():
                out.append(f"{run.workload} [{run.scenario}]: {failure}")
        return out

    def signature(self) -> Tuple:
        return tuple(run.signature() for run in self.runs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "failures": self.invariant_failures(),
            "stale_epoch_rejections": self.stale_epoch_rejections,
            "runs": [
                {
                    "workload": run.workload,
                    "scenario": run.scenario,
                    "seed": run.seed,
                    "ok": run.ok,
                    "outcome": run.outcome,
                    "victim_alive": run.victim_alive,
                    "victim_exit_reason": run.victim_exit_reason,
                    "recoveries_attempted": run.result.recoveries_attempted,
                    "recoveries_succeeded": run.result.recoveries_succeeded,
                    "fallback_executions": run.result.fallback_executions,
                    "recovery_ticks": run.result.recovery_ticks,
                    "stale_epoch_rejections": run.result.stale_epoch_rejections,
                    "quarantines": run.result.quarantines,
                    "resets": run.resets,
                    "rogue_writes": run.rogue_writes,
                    "replayed": run.replayed,
                    "secret_intact": run.secret_intact,
                    "tenant_iterations": run.tenant_iterations,
                    "tenant_slowdown": round(run.tenant_slowdown, 3),
                    "ticks": run.result.ticks,
                }
                for run in self.runs
            ],
        }

    def render(self) -> str:
        """Human-readable recovery report."""
        lines = [
            f"recovery campaign (seed {self.seed}): "
            f"{len(self.runs)} runs, {'PASS' if self.ok else 'FAIL'}",
            f"{'workload':<12} {'scenario':<14} {'outcome':<10} {'att':>3} "
            f"{'ok':>3} {'fb':>3} {'stale':>5} {'quar':>4} {'tenant':>7}  status",
        ]
        for run in self.runs:
            lines.append(
                f"{run.workload:<12} {run.scenario:<14} {run.outcome:<10} "
                f"{run.result.recoveries_attempted:>3} "
                f"{run.result.recoveries_succeeded:>3} "
                f"{run.result.fallback_executions:>3} "
                f"{run.result.stale_epoch_rejections:>5} "
                f"{run.result.quarantines:>4} "
                f"{run.tenant_slowdown:>6.1f}x  "
                f"{'ok' if run.ok else 'FAIL'}"
            )
        lines.append(
            "recovery: "
            f"{sum(r.result.recoveries_attempted for r in self.runs)} attempts, "
            f"{sum(r.result.recoveries_succeeded for r in self.runs)} succeeded, "
            f"{sum(r.result.fallback_executions for r in self.runs)} CPU fallbacks, "
            f"{self.stale_epoch_rejections} stale-epoch rejections, "
            f"{sum(1 for r in self.runs if r.outcome == 'killed')} storm kill(s)"
        )
        for failure in self.invariant_failures():
            lines.append(f"  FAIL {failure}")
        return "\n".join(lines)


def recovery_grid(
    workloads: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
    quick: bool = False,
) -> List[Dict[str, object]]:
    """The campaign's declarative grid: one kwargs dict per run, each
    sub-seeded from ``(seed, workload, scenario)`` so the report is a
    pure function of its arguments regardless of execution order."""
    workloads = list(workloads or DEFAULT_RECOVERY_WORKLOADS)
    scenarios = list(scenarios or RECOVERY_SCENARIOS)
    if quick:
        ops_scale = min(ops_scale, 0.25)
        workloads = workloads[:1]
    cells: List[Dict[str, object]] = []
    for workload in workloads:
        for scenario in scenarios:
            cells.append(
                dict(
                    workload=workload,
                    scenario=scenario,
                    seed=derive_seed(seed, workload, scenario),
                    ops_scale=ops_scale,
                )
            )
    return cells


def _recovery_cell(kwargs: Dict[str, object]) -> RecoveryRunResult:
    """Picklable worker entry point for one recovery grid cell."""
    return run_recovery_single(**kwargs)  # type: ignore[arg-type]


def _recovery_recipe(cell: Dict[str, object]) -> Dict[str, object]:
    """The JSON replay recipe of one recovery grid cell (``replay-cell``)."""
    return {
        "workload": cell["workload"],
        "scenario": cell["scenario"],
        "seed": cell["seed"],
        "ops_scale": cell["ops_scale"],
    }


def _recovery_cell_label(cell: Dict[str, object]) -> str:
    return "{}[{}]".format(cell["workload"], cell["scenario"])


def recovery_result_to_dict(run: RecoveryRunResult) -> Dict[str, object]:
    """Lossless JSON form of one recovery run (journal checkpointing)."""
    return record_to_dict(run)


def recovery_result_from_dict(data: Dict[str, object]) -> RecoveryRunResult:
    """Inverse of :func:`recovery_result_to_dict`."""
    return record_from_dict(RecoveryRunResult, data)


#: Recovery campaigns as plain data for :func:`repro.sweep.run_campaign`.
RECOVERY_CAMPAIGN = CampaignKind(
    name="recovery",
    cell_fn=_recovery_cell,
    label_of=_recovery_cell_label,
    recipe_of=_recovery_recipe,
    cell_of=dict,  # a recovery recipe is its grid cell
    to_dict=recovery_result_to_dict,
    from_dict=recovery_result_from_dict,
)


def run_recovery_campaign(
    workloads: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
    quick: bool = False,
    workers: Optional[int] = 1,
    policy=None,
    journal=None,
    should_abort=None,
) -> RecoveryReport:
    """Sweep recovery scenarios across workloads; returns the report.

    The :func:`recovery_grid` cells run through
    :func:`repro.sweep.run_campaign` under the same contract as
    :func:`repro.chaos.run_chaos_campaign`. ``policy`` is the
    *supervisor* policy; the recovery retry policy is a per-run
    :class:`RecoveryPolicy`.
    """
    cells = recovery_grid(
        workloads, scenarios, seed=seed, ops_scale=ops_scale, quick=quick
    )
    report = run_campaign(
        cells,
        RECOVERY_CAMPAIGN,
        workers=workers,
        policy=policy,
        journal=journal,
        should_abort=should_abort,
    )
    return RecoveryReport(seed=seed, runs=report.results)
