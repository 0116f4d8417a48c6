"""End-to-end violation recovery: epoch fence, retry, fallback, storms.

Covers the ``repro.recovery`` subsystem plus the kernel/border plumbing
it rides on: epoch-fenced reset (stale traffic dies at the border and
the ATS), the quarantine backoff cap and violation-storm circuit
breaker, kernel retry with CPU fallback, and the determinism contract
of the recovery campaign.
"""

from __future__ import annotations

import pytest

from repro.core.permissions import Perm
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT, PAGE_SIZE
from repro.osmodel.kernel import ViolationPolicy
from repro.recovery import (
    RECOVERY_SCENARIOS,
    RecoveryPolicy,
    run_recovery_campaign,
    run_recovery_single,
    trace_to_cpu_program,
)
from repro.sim.config import SystemConfig
from repro.sim.system import GPU_ID

from tests.util import MEM_128M, make_system, small_config, tiny_spec


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    from repro.experiments import common

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common.clear_cache()
    yield
    common.clear_cache()


def _tiny_recovery(scenario, seed=5, **overrides):
    return run_recovery_single(
        "tiny",
        scenario,
        seed=seed,
        workload_spec=tiny_spec(),
        config=small_config(),
        **overrides,
    )


# ---------------------------------------------------------------------------
# Epoch fence
# ---------------------------------------------------------------------------


def test_attach_opens_a_new_epoch_and_stamps_the_device():
    system = make_system()
    assert system.border_control.epoch == 0
    system.attach_process(system.new_process("p"))
    assert system.border_control.epoch == 1
    assert system.gpu.epoch == 1


def test_admit_epoch_rejects_only_stale_epochs():
    system = make_system()
    system.attach_process(system.new_process("p"))
    bc = system.border_control
    assert bc.admit_epoch(None)  # unstamped traffic is not fenced
    assert bc.admit_epoch(bc.epoch)
    assert bc.admit_epoch(bc.epoch + 1)
    assert bc.stale_epoch_rejections == 0
    assert not bc.admit_epoch(bc.epoch - 1)
    assert bc.stale_epoch_rejections == 1


def test_border_port_drops_stale_epoch_requests_before_permission_lookup():
    system = make_system()
    kernel = system.kernel
    proc = system.new_process("p")
    system.attach_process(proc)
    vaddr = kernel.mmap(proc, 1, Perm.RW)
    translation = system.engine.run_process(
        system.ats.translate(GPU_ID, proc.asid, vaddr >> PAGE_SHIFT)
    )
    paddr = translation.ppn << PAGE_SHIFT

    # Current-epoch traffic to a granted page flows.
    ok = system.engine.run_process(
        system.border_port.access(paddr, BLOCK_SIZE, False)
    )
    assert ok is not None
    checked_before = system.stats.get("border.checks")

    # The identical request stamped with the pre-attach epoch dies at
    # the fence — no Border Control permission check is even performed.
    stale = system.engine.run_process(
        system.border_port.access(paddr, BLOCK_SIZE, False, epoch=0)
    )
    assert stale is None
    assert system.border_control.stale_epoch_rejections == 1
    assert system.stats.get("border_port.stale_epoch_rejections") == 1
    assert system.stats.get("border.checks") == checked_before


def test_ats_epoch_gate_blocks_pre_reset_translations():
    system = make_system()
    proc = system.new_process("p")
    system.attach_process(proc)
    vaddr = system.kernel.mmap(proc, 1, Perm.RW)
    # The device falls behind the authoritative epoch (as it would be
    # between a reset being fenced and the hardware rejoining).
    system.gpu.epoch = system.border_control.epoch - 1
    result = system.engine.run_process(
        system.ats.translate(GPU_ID, proc.asid, vaddr >> PAGE_SHIFT)
    )
    assert result is None
    assert system.stats.get("ats.stale_epoch_rejections") == 1
    # Once the device catches up, the same translation succeeds.
    system.gpu.epoch = system.border_control.epoch
    result = system.engine.run_process(
        system.ats.translate(GPU_ID, proc.asid, vaddr >> PAGE_SHIFT)
    )
    assert result is not None


# ---------------------------------------------------------------------------
# Kernel reset / re-admission plumbing
# ---------------------------------------------------------------------------


def test_reset_accelerator_advances_epoch_and_lifts_quarantine():
    system = make_system()
    kernel = system.kernel
    system.attach_process(system.new_process("p"))
    epoch_before = system.border_control.epoch
    assert kernel.quarantine_accelerator(GPU_ID, "strike one")
    assert kernel.is_quarantined(GPU_ID)

    assert kernel.reset_accelerator(GPU_ID)
    assert system.border_control.epoch == epoch_before + 1
    assert system.gpu.epoch == system.border_control.epoch
    assert system.gpu.enabled
    assert not kernel.is_quarantined(GPU_ID)
    assert kernel.stats.get("resets") == 1


def test_reset_accelerator_unknown_accel_returns_false():
    system = make_system()
    assert not system.kernel.reset_accelerator("no-such-accel")
    assert system.kernel.stats.get("resets") == 0


def test_reset_keeps_strike_history_so_escalation_continues():
    system = make_system()
    system.attach_process(system.new_process("p"))
    kernel = system.kernel
    kernel.quarantine_backoff_ticks = 1_000
    assert kernel.quarantine_accelerator(GPU_ID, "first")
    assert kernel.reset_accelerator(GPU_ID)
    start = system.engine.now
    # The post-reset offense is strike TWO: the window doubles.
    assert kernel.quarantine_accelerator(GPU_ID, "second")
    system.engine.run()
    assert system.engine.now - start == 2_000


def test_release_quarantine_readmits_via_enable_hook():
    system = make_system()
    system.attach_process(system.new_process("p"))
    kernel = system.kernel
    kernel.quarantine_backoff_ticks = 0  # manual release only
    observed = []
    original = system.gpu.enable
    system.gpu.enable = lambda: (observed.append("enable"), original())[1]
    assert kernel.quarantine_accelerator(GPU_ID, "strike")
    assert kernel.is_quarantined(GPU_ID)  # no backoff: permanent until manual
    kernel.release_quarantine(GPU_ID)
    assert observed == ["enable"]
    assert system.gpu.enabled
    assert not kernel.is_quarantined(GPU_ID)


def test_quarantine_backoff_exponent_is_capped():
    system = make_system()
    system.attach_process(system.new_process("p"))
    kernel = system.kernel
    kernel.quarantine_backoff_ticks = 100
    kernel.quarantine_backoff_cap = 2
    windows = []
    for _strike in range(4):
        start = system.engine.now
        assert kernel.quarantine_accelerator(GPU_ID, "again")
        system.engine.run()
        windows.append(system.engine.now - start)
    # 100, 200, 400, then capped at 400 — not 800.
    assert windows == [100, 200, 400, 400]


def test_backoff_cap_and_storm_threshold_come_from_system_config():
    config = SystemConfig(
        phys_mem_bytes=MEM_128M,
        quarantine_backoff_cap=3,
        violation_storm_threshold=5,
    )
    from repro.sim.system import System

    system = System(config)
    assert system.kernel.quarantine_backoff_cap == 3
    assert system.kernel.violation_storm_threshold == 5


def test_violation_storm_breaker_kills_and_bans_permanently():
    system = make_system()
    kernel = system.kernel
    kernel.quarantine_backoff_ticks = 100
    kernel.violation_storm_threshold = 2
    proc = system.new_process("victim-of-storm")
    system.attach_process(proc)

    assert kernel.quarantine_accelerator(GPU_ID, "strike one")
    assert proc.alive  # below threshold: timed quarantine only
    system.engine.run()  # timed release re-admits
    assert not kernel.is_quarantined(GPU_ID)

    assert kernel.quarantine_accelerator(GPU_ID, "strike two")
    assert not proc.alive
    assert "violation storm" in proc.exit_reason
    assert kernel.stats.get("permanent_quarantines") == 1
    assert kernel.stats.get("storm_kills") == 1
    # Permanent: no timed release is scheduled, ever.
    system.engine.run()
    assert kernel.is_quarantined(GPU_ID)
    assert not system.gpu.enabled


# ---------------------------------------------------------------------------
# CPU fallback plumbing
# ---------------------------------------------------------------------------


def test_trace_flattens_to_equivalent_cpu_program():
    system = make_system()
    proc = system.new_process("p")
    system.attach_process(proc)
    from repro.workloads.base import generate_trace
    from repro.sim.config import GPUThreading

    trace = generate_trace(
        tiny_spec(), system.kernel, proc, GPUThreading.MODERATELY, seed=3
    )
    program = trace_to_cpu_program(trace, gap_cycles=1)
    assert program.total_mem_ops == trace.total_mem_ops
    gpu_ops = [
        (vaddr, write)
        for cu in trace.cu_wavefronts
        for wf in cu
        for (_gap, vaddr, write) in wf
    ]
    cpu_ops = [(vaddr, write) for (_gap, vaddr, write) in program.ops]
    assert cpu_ops == gpu_ops


# ---------------------------------------------------------------------------
# End-to-end recovery scenarios
# ---------------------------------------------------------------------------


def test_hang_recovers_by_epoch_fenced_reset_and_retry():
    run = _tiny_recovery("hang")
    assert run.ok, run.invariant_failures()
    assert run.outcome == "retried"
    assert run.result.recoveries_attempted == 1
    assert run.result.recoveries_succeeded == 1
    assert run.result.fallback_executions == 0
    assert run.resets == 1
    assert run.victim_alive
    assert run.result.recovery_ticks > 0


def test_rogue_writes_are_contained_and_victim_retries_through():
    run = _tiny_recovery("rogue-write")
    assert run.ok, run.invariant_failures()
    assert run.outcome == "retried"
    assert run.rogue_writes > 0
    assert run.rogue_conf_escapes == 0
    assert run.rogue_integ_escapes == 0
    assert run.secret_intact
    assert run.result.quarantines >= 1


def test_reset_replay_dies_at_the_epoch_fence():
    run = _tiny_recovery("reset-replay")
    assert run.ok, run.invariant_failures()
    assert run.replayed > 0
    assert run.replay_commits == 0
    assert run.result.stale_epoch_rejections > 0
    assert run.secret_intact


def test_retry_budget_exhaustion_degrades_to_cpu_fallback():
    run = _tiny_recovery("fallback")
    assert run.ok, run.invariant_failures()
    assert run.outcome == "fallback"
    assert run.result.recoveries_attempted == RecoveryPolicy().max_retries
    assert run.result.recoveries_succeeded == 0
    assert run.result.fallback_executions == 1
    assert run.victim_alive  # degraded, not dead


def test_violation_storm_ends_in_an_explicit_kill():
    run = _tiny_recovery("storm")
    assert run.ok, run.invariant_failures()
    assert run.outcome == "killed"
    assert not run.victim_alive
    assert "violation storm" in run.victim_exit_reason
    assert run.secret_intact


def test_tenant_makes_forward_progress_through_every_scenario():
    for scenario in RECOVERY_SCENARIOS:
        run = _tiny_recovery(scenario)
        assert run.tenant_iterations > 0, scenario
        # A contended iteration is never faster than the warm solo one.
        assert 1.0 <= run.tenant_slowdown <= run.tenant_tolerance, scenario


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError):
        _tiny_recovery("meteor-strike")


def test_same_seed_reproduces_the_exact_recovery_signature():
    first = _tiny_recovery("reset-replay", seed=21)
    second = _tiny_recovery("reset-replay", seed=21)
    assert first.signature() == second.signature()
    assert first.plan_signature == second.plan_signature


# ---------------------------------------------------------------------------
# Campaign serialization (worker-count parity and resume: test_campaign.py)
# ---------------------------------------------------------------------------


def test_recovery_result_round_trips_through_json():
    import json

    from repro.recovery import recovery_result_from_dict, recovery_result_to_dict

    run = _tiny_recovery("reset-replay", seed=31)
    blob = json.dumps(recovery_result_to_dict(run))
    clone = recovery_result_from_dict(json.loads(blob))
    assert recovery_result_to_dict(clone) == recovery_result_to_dict(run)
    assert clone.signature() == run.signature()
    # Older journals wrote no tenant_tolerance: it rehydrates as the default.
    entry = recovery_result_to_dict(run)
    del entry["tenant_tolerance"]
    assert recovery_result_from_dict(entry).tenant_tolerance == 8.0


def test_sweep_report_surfaces_recovery_counters():
    from repro.sweep import Cell, CellOutcome, SweepReport
    from repro.sim.config import GPUThreading, SafetyMode

    run = _tiny_recovery("fallback")
    cell = Cell(
        workload="tiny",
        safety=SafetyMode.BC_BCC,
        threading=GPUThreading.MODERATELY,
    )
    report = SweepReport(
        outcomes=[
            CellOutcome(
                cell=cell,
                result=run.result,
                error=None,
                wall_seconds=0.0,
                cache_hit=False,
            ),
            CellOutcome(  # failed cells must not break the render
                cell=cell,
                result=None,
                error="boom",
                wall_seconds=0.0,
                cache_hit=False,
            ),
        ],
        workers=1,
        wall_seconds=0.0,
        mode="serial",
    )
    text = report.render()
    assert "recovery:" in text
    assert "CPU fallbacks" in text
    assert "stale-epoch rejections" in text


def test_report_renders_and_serializes():
    report = run_recovery_campaign(
        workloads=["bfs"], scenarios=["hang"], ops_scale=0.1, seed=41
    )
    text = report.render()
    assert "recovery campaign" in text
    assert "PASS" in text
    payload = report.to_dict()
    assert payload["ok"] is True
    assert payload["runs"][0]["scenario"] == "hang"
