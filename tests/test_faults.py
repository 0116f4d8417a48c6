"""Fault-injection & resilience layer: plans, ports, recovery, chaos.

The load-bearing claims under test:

* a seeded :class:`FaultPlan` is deterministic and serializable — the
  same seed replays the identical fault sequence;
* :class:`FaultyPort` injects exactly the configured failure modes and
  never invents data the layer below refused to return;
* the resilience primitives (``Engine.deadline``, border
  timeout+retry, ``ViolationPolicy.QUARANTINE``) clear every injected
  hang so the simulation always terminates;
* chaos runs preserve the sandbox invariants: no blocked access ever
  commits or leaks data, for any seed and fault mix (hypothesis), and a
  seed reproduces its entire invariant report bit-for-bit.
"""

import pytest
from hypothesis import given, strategies as st

from repro.chaos import run_chaos_single
from repro.core.permissions import Perm
from repro.errors import BorderTimeoutError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyPort
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT
from repro.mem.port import MemoryPort
from repro.osmodel.kernel import ViolationPolicy
from repro.sim.engine import TIMEOUT, Engine
from repro.sim.system import GPU_ID

from tests.util import make_system, profile_settings, small_config, tiny_spec


class RecordingPort(MemoryPort):
    """A bottom-of-chain stub: records accesses, returns zero blocks."""

    name = "recording"

    def __init__(self, latency: int = 0) -> None:
        self.reads = []
        self.writes = []
        self.latency = latency

    def access(self, addr, size, write, data=None):
        if self.latency:
            yield self.latency
        if write:
            self.writes.append((addr, bytes(data[:size])))
            return b""
        self.reads.append((addr, size))
        return bytes(size)


def always(kind: FaultKind, max_count: int = 0, param: int = 0) -> FaultPlan:
    return FaultPlan(3, [FaultSpec(kind, "s", 1.0, max_count=max_count, param=param)])


# ---------------------------------------------------------------------------
# FaultPlan: determinism and serialization
# ---------------------------------------------------------------------------


def drive(plan: FaultPlan, writes):
    injector = plan.for_site("a")
    return [
        spec.kind.value if (spec := injector.draw(w)) is not None else None
        for w in writes
    ]


def test_same_seed_same_fault_sequence():
    specs = [
        FaultSpec(FaultKind.DROP, "a", 0.3),
        FaultSpec(FaultKind.BIT_FLIP, "a", 0.4),
    ]
    writes = [i % 3 == 0 for i in range(200)]
    first = drive(FaultPlan(99, specs), writes)
    second = drive(FaultPlan(99, specs), writes)
    assert first == second
    assert any(k is not None for k in first)  # the rates actually fire


def test_serialization_round_trip_replays_identically():
    plan = FaultPlan(
        7,
        [
            FaultSpec(FaultKind.HANG, "a", 0.2, max_count=2),
            FaultSpec(FaultKind.DUP_WRITEBACK, "a", 0.5, param=9),
        ],
    )
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.seed == plan.seed and clone.specs == plan.specs
    writes = [i % 2 == 0 for i in range(100)]
    assert drive(plan, writes) == drive(clone, writes)
    assert plan.signature() == clone.signature()


def test_max_count_bounds_injections_without_perturbing_stream():
    spec_bounded = [FaultSpec(FaultKind.DROP, "a", 0.5, max_count=3)]
    spec_free = [FaultSpec(FaultKind.DROP, "a", 0.5)]
    writes = [False] * 100
    bounded = drive(FaultPlan(5, spec_bounded), writes)
    free = drive(FaultPlan(5, spec_free), writes)
    assert sum(k is not None for k in bounded) == 3
    # The bounded stream is a prefix-truncation of the free one: the
    # budget stops injections but never shifts later rolls.
    fired = [i for i, k in enumerate(free) if k is not None]
    assert [i for i, k in enumerate(bounded) if k is not None] == fired[:3]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rate=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=80),
)
def test_plan_determinism_property(seed, rate, n):
    specs = [FaultSpec(FaultKind.DROP, "a", rate)]
    writes = [i % 2 == 0 for i in range(n)]
    a, b = FaultPlan(seed, specs), FaultPlan(seed, specs)
    assert drive(a, writes) == drive(b, writes)
    assert a.signature() == b.signature()


# ---------------------------------------------------------------------------
# FaultyPort behaviors
# ---------------------------------------------------------------------------


def test_drop_returns_none_without_touching_downstream():
    engine = Engine()
    rec = RecordingPort()
    port = FaultyPort(engine, rec, always(FaultKind.DROP), "s")
    assert engine.run_process(port.access(0, BLOCK_SIZE, False)) is None
    assert rec.reads == [] and rec.writes == []


def test_delay_stalls_then_completes():
    engine = Engine()
    rec = RecordingPort()
    port = FaultyPort(engine, rec, always(FaultKind.DELAY, param=500), "s")
    result = engine.run_process(port.access(0, BLOCK_SIZE, False))
    assert result == bytes(BLOCK_SIZE)
    assert engine.now == 500


def test_bit_flip_corrupts_exactly_one_bit_of_returned_reads():
    engine = Engine()
    port = FaultyPort(engine, RecordingPort(), always(FaultKind.BIT_FLIP), "s")
    result = engine.run_process(port.access(0, BLOCK_SIZE, False))
    assert len(result) == BLOCK_SIZE
    assert sum(bin(b).count("1") for b in result) == 1


def test_bit_flip_never_invents_data_for_blocked_reads():
    class Blocked(MemoryPort):
        def access(self, addr, size, write, data=None):
            return None
            yield  # pragma: no cover

    engine = Engine()
    port = FaultyPort(engine, Blocked(), always(FaultKind.BIT_FLIP), "s")
    assert engine.run_process(port.access(0, BLOCK_SIZE, False)) is None


def test_dup_writeback_commits_twice():
    engine = Engine()
    rec = RecordingPort()
    port = FaultyPort(engine, rec, always(FaultKind.DUP_WRITEBACK), "s")
    payload = b"\xab" * BLOCK_SIZE
    result = engine.run_process(port.access(64, BLOCK_SIZE, True, payload))
    assert result == b""
    assert rec.writes == [(64, payload), (64, payload)]


def test_hang_parks_until_released():
    engine = Engine()
    port = FaultyPort(engine, RecordingPort(), always(FaultKind.HANG), "s")
    proc = engine.process(port.access(0, BLOCK_SIZE, False))
    engine.run()
    assert not proc.triggered and port.pending_hangs == 1
    assert port.release_hangs() == 1
    engine.run()
    assert proc.triggered and proc.value is None


# ---------------------------------------------------------------------------
# Engine resilience primitives
# ---------------------------------------------------------------------------


def _wait(evt):
    value = yield evt
    return value


def test_deadline_returns_value_when_event_wins():
    engine = Engine()
    evt = engine.event()
    engine.schedule(50, lambda: evt.succeed("payload"))
    assert engine.run_process(_wait(engine.deadline(evt, 100))) == "payload"


def test_deadline_returns_timeout_sentinel_when_clock_wins():
    engine = Engine()
    evt = engine.event()
    engine.schedule(500, lambda: evt.succeed("late"))
    result = engine.run_process(_wait(engine.deadline(evt, 100)))
    assert result is TIMEOUT
    assert not result  # falsy, so `if result:` treats it like a failure


# ---------------------------------------------------------------------------
# BorderControlPort: timeout + bounded retry
# ---------------------------------------------------------------------------


def _granted_block(system):
    """Attach a process, grant one page to the GPU, return its paddr."""
    proc = system.new_process("p")
    system.attach_process(proc)
    vaddr = system.kernel.mmap(proc, 1, Perm.RW)
    translation = system.engine.run_process(
        system.ats.translate(GPU_ID, proc.asid, vaddr >> PAGE_SHIFT)
    )
    assert translation is not None
    return proc, translation.ppn << PAGE_SHIFT


def test_border_retry_recovers_from_a_hung_response():
    system = make_system()
    _, paddr = _granted_block(system)
    plan = FaultPlan(1, [FaultSpec(FaultKind.HANG, "s", 1.0, max_count=1)])
    border = system.border_port
    border.downstream = FaultyPort(system.engine, system.memctl, plan, "s")
    # Comfortably above the 60 ns DRAM latency, so only the injected
    # hang — never a legitimate slow response — trips the deadline.
    border.request_timeout_ticks = 200_000
    result = system.engine.run_process(border.access(paddr, BLOCK_SIZE, False))
    assert result is not None and len(result) == BLOCK_SIZE
    assert system.stats.get("border_port.timeouts") == 1
    assert system.stats.get("border_port.retries") == 1


def test_border_strict_timeout_raises_after_retry_budget():
    system = make_system()
    _, paddr = _granted_block(system)
    plan = FaultPlan(1, [FaultSpec(FaultKind.HANG, "s", 1.0)])  # hangs forever
    border = system.border_port
    border.downstream = FaultyPort(system.engine, system.memctl, plan, "s")
    border.request_timeout_ticks = 1_000
    border.max_retries = 2
    border.strict_timeouts = True
    with pytest.raises(BorderTimeoutError) as exc:
        system.engine.run_process(border.access(paddr, BLOCK_SIZE, False))
    assert exc.value.attempts == 3
    assert system.stats.get("border_port.abandoned") == 1


def test_zero_timeout_is_timing_transparent():
    system = make_system()
    _, paddr = _granted_block(system)
    assert system.border_port.request_timeout_ticks == 0
    result = system.engine.run_process(
        system.border_port.access(paddr, BLOCK_SIZE, False)
    )
    assert result is not None
    assert system.stats.get("border_port.timeouts") == 0


# ---------------------------------------------------------------------------
# Quarantine lifecycle
# ---------------------------------------------------------------------------


def test_violation_quarantines_downgrades_and_readmits():
    system = make_system()
    kernel = system.kernel
    kernel.violation_policy = ViolationPolicy.QUARANTINE
    kernel.quarantine_backoff_ticks = 1_000
    _, good_paddr = _granted_block(system)

    victim = system.new_process("victim")
    secret_vaddr = kernel.mmap(victim, 1, Perm.RW)
    bad_paddr = victim.page_table.translate(secret_vaddr).ppn << PAGE_SHIFT

    # The rogue write trips the border; policy = QUARANTINE.
    decision = system.border_control.check(bad_paddr, write=True)
    assert not decision.allowed
    assert not system.gpu.enabled
    assert kernel.is_quarantined(GPU_ID)
    assert kernel.stats.get("quarantines") == 1
    # The sandbox was downgraded: even the legitimately granted page is
    # revoked until re-translated.
    assert not system.border_control.check(good_paddr, write=False).allowed

    # A violation storm must not stack sanctions.
    assert not kernel.quarantine_accelerator(GPU_ID, "storm")
    assert kernel.stats.get("quarantines") == 1

    # After the backoff window the device is re-admitted.
    system.engine.run()
    assert system.engine.now >= 1_000
    assert system.gpu.enabled
    assert not kernel.is_quarantined(GPU_ID)


def test_repeat_offense_doubles_the_backoff_window():
    system = make_system()
    system.attach_process(system.new_process("p"))  # registers the GPU
    kernel = system.kernel
    kernel.quarantine_backoff_ticks = 1_000
    assert kernel.quarantine_accelerator(GPU_ID, "first")
    system.engine.run()
    first_release = system.engine.now
    assert kernel.quarantine_accelerator(GPU_ID, "second")
    system.engine.run()
    assert system.engine.now - first_release == 2_000


def test_timed_release_readmits_with_empty_sandbox():
    system = make_system()
    kernel = system.kernel
    kernel.violation_policy = ViolationPolicy.QUARANTINE
    kernel.quarantine_backoff_ticks = 1_000
    proc = system.new_process("p")
    system.attach_process(proc)
    good_vaddr = kernel.mmap(proc, 1, Perm.RW)
    translation = system.engine.run_process(
        system.ats.translate(GPU_ID, proc.asid, good_vaddr >> PAGE_SHIFT)
    )
    assert translation is not None
    good_paddr = translation.ppn << PAGE_SHIFT

    victim = system.new_process("victim")
    secret_vaddr = kernel.mmap(victim, 1, Perm.RW)
    bad_paddr = victim.page_table.translate(secret_vaddr).ppn << PAGE_SHIFT
    assert not system.border_control.check(bad_paddr, write=True).allowed
    assert kernel.is_quarantined(GPU_ID)

    # The timed release re-admits the device via enable()...
    system.engine.run()
    assert system.gpu.enabled
    assert not kernel.is_quarantined(GPU_ID)
    assert kernel.stats.get("readmissions") == 1
    # ...but into an EMPTY sandbox: the pre-quarantine grant stays
    # revoked until the device re-earns it through an ATS translation.
    assert not system.border_control.check(good_paddr, write=False).allowed
    translation = system.engine.run_process(
        system.ats.translate(GPU_ID, proc.asid, good_vaddr >> PAGE_SHIFT)
    )
    assert translation is not None
    assert system.border_control.check(good_paddr, write=False).allowed


def test_longer_quarantine_supersedes_pending_release():
    system = make_system()
    system.attach_process(system.new_process("p"))
    kernel = system.kernel
    engine = system.engine
    kernel.quarantine_backoff_ticks = 1_000
    # Strike 1 at t=0 schedules a release at t=1000. A manual release at
    # t=500 and a second strike at t=600 (2000-tick window, ends t=2600)
    # leave the t=1000 callback stale — it must NOT cut the newer, longer
    # quarantine short.
    assert kernel.quarantine_accelerator(GPU_ID, "first")
    engine.schedule(500, lambda: kernel.release_quarantine(GPU_ID))
    engine.schedule(
        600, lambda: kernel.quarantine_accelerator(GPU_ID, "second")
    )
    observed = {}
    engine.schedule(
        1_001,
        lambda: observed.update(
            enabled=system.gpu.enabled,
            quarantined=kernel.is_quarantined(GPU_ID),
        ),
    )
    engine.run()
    assert observed == {"enabled": False, "quarantined": True}
    assert engine.now >= 2_600
    assert system.gpu.enabled
    assert not kernel.is_quarantined(GPU_ID)


def test_release_quarantine_of_unknown_accel_is_noop():
    system = make_system()
    kernel = system.kernel
    kernel.release_quarantine("no-such-accel")  # must not raise
    assert kernel.stats.get("readmissions") == 0
    assert not kernel.is_quarantined("no-such-accel")


# ---------------------------------------------------------------------------
# Chaos runs: hangs cleared, invariants hold, seeds reproduce
# ---------------------------------------------------------------------------


def _tiny_chaos(kinds, seed):
    return run_chaos_single(
        "tiny",
        kinds,
        seed=seed,
        workload_spec=tiny_spec(),
        config=small_config(),
    )


def test_hanging_accelerator_is_recovered_by_watchdog_and_quarantine():
    run = _tiny_chaos([FaultKind.HANG], seed=11)
    assert run.completed  # Engine.run terminated despite the wedge
    assert run.result.watchdog_fires >= 1
    assert run.result.quarantines >= 1
    assert run.ok, run.invariant_failures()


def test_chaos_mix_holds_invariants_and_reports_fault_counts():
    run = _tiny_chaos(list(FaultKind), seed=23)
    assert run.ok, run.invariant_failures()
    assert run.result.faults_injected == sum(run.fault_counts.values())
    assert run.probes > 0  # the rogue prober actually exercised the border


@profile_settings(0.12, floor=3)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.sets(st.sampled_from(list(FaultKind)), min_size=1, max_size=3),
)
def test_chaos_never_leaks_and_same_seed_reproduces(seed, kinds):
    kinds = sorted(kinds, key=lambda kind: kind.value)
    first = _tiny_chaos(kinds, seed)
    second = _tiny_chaos(kinds, seed)
    for run in (first, second):
        # (a) no blocked access ever commits or returns data
        assert run.conf_escapes == 0
        assert run.integ_escapes == 0
        assert run.secret_intact
        assert run.completed
    # (b) the same seed reproduces the identical fault sequence and result
    assert first.plan_signature == second.plan_signature
    assert first.signature() == second.signature()
    assert first.result == second.result
