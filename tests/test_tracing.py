"""Tests for the event-tracing module."""

import json

import pytest

from repro.accel.faulty import MaliciousEngine
from repro.core.permissions import Perm
from repro.mem.address import PAGE_SHIFT
from repro.osmodel.kernel import ViolationPolicy
from repro.sim.config import SafetyMode
from repro.sim.system import System
from repro.sim.tracing import EVENT_KINDS, Events, EventTrace

from tests.util import make_system, small_config, tiny_spec


def violate(system):
    victim = system.new_process("victim")
    vaddr = system.kernel.mmap(victim, 1, Perm.RW)
    ppn = victim.page_table.translate(vaddr).ppn
    attacker = system.new_process("attacker")
    system.attach_process(attacker)
    trojan = MaliciousEngine(system.engine, system.border_port)
    trojan.read_phys(ppn << PAGE_SHIFT)
    return ppn


def trojan_read(system):
    """A Border Control block: a read of another process's frame."""
    return violate(system) << PAGE_SHIFT, False


def iommu_store_to_read_only_page(system):
    """A full-IOMMU refusal: a store to a read-only page."""
    proc = system.new_process("p")
    system.attach_process(proc)
    vaddr = system.kernel.mmap(proc, 1, Perm.R)
    system.engine.run_process(
        system.full_iommu.mem_op(0, proc.asid, vaddr, True, b"x" * 128)
    )
    return vaddr, True


def capi_read_of_unmapped_address(system):
    """A CAPI-like refusal: a read the trusted TLB cannot translate."""
    proc = system.new_process("p")
    system.attach_process(proc)
    system.engine.run_process(system.capi.mem_op(0, proc.asid, 0xDEAD000, False))
    return 0xDEAD000, False


#: One refusal per checking mode; each returns the (address, write) the
#: OS's record holds (a front end's record keeps the virtual address).
REFUSALS = {
    SafetyMode.BC_BCC: trojan_read,
    SafetyMode.FULL_IOMMU: iommu_store_to_read_only_page,
    SafetyMode.CAPI_LIKE: capi_read_of_unmapped_address,
}


class TestEventTrace:
    @pytest.mark.parametrize(
        "mode", list(REFUSALS), ids=[mode.value for mode in REFUSALS]
    )
    def test_violations_recorded_with_timestamps(self, mode):
        system = make_system(mode)
        trace = EventTrace.attach(system)
        addr, write = REFUSALS[mode](system)
        events = trace.of_kind("violation")
        assert len(events) == 1
        assert events[0].fields["paddr"] == hex(addr)
        assert events[0].fields["write"] is write
        assert events[0].time_ticks >= 0
        # The trace holds every refusal the OS logged, from the same device.
        assert [e.fields["accel"] for e in events] == [
            record.accel_id for record in system.kernel.violation_log
        ]

    def test_lifecycle_transitions_recorded(self):
        system = System(
            small_config(SafetyMode.BC_BCC),
            violation_policy=ViolationPolicy.QUARANTINE,
        )
        trace = EventTrace.attach(system)
        violate(system)
        system.kernel.release_quarantine("gpu0")
        assert [
            (e.fields["event"], e.fields["accel"]) for e in trace.of_kind("lifecycle")
        ] == [("quarantine", "gpu0"), ("readmit", "gpu0")]
        assert trace.of_kind("lifecycle")[0].fields["strikes"] == 1

    def test_crossing_tracing_opt_in(self):
        from repro.workloads.base import generate_trace

        system = make_system(SafetyMode.BC_BCC)
        trace = EventTrace.attach(system, crossings=True)
        proc = system.new_process("p")
        system.attach_process(proc)
        ktrace = generate_trace(
            tiny_spec(ops_per_wavefront=10), system.kernel, proc,
            system.config.threading,
        )
        system.run_kernel(proc, ktrace)
        assert trace.counts().get("crossing", 0) > 0

    def test_max_events_bound(self):
        system = make_system(SafetyMode.BC_BCC)
        trace = EventTrace(system.engine, max_events=2)
        for i in range(5):
            trace.record("x", i=i)
        assert len(trace.events) == 2
        assert trace.dropped == 3
        assert "dropped" in trace.render()

    def test_queries_and_render(self):
        system = make_system(SafetyMode.BC_BCC)
        trace = EventTrace(system.engine)
        trace.record("a", v=1)
        trace.record("b", v=2)
        assert [e.kind for e in trace.of_kind("a")] == ["a"]
        assert trace.counts() == {"a": 1, "b": 1}
        assert trace.between(0, 1)  # both at t=0
        assert "v=1" in trace.render(limit=1)

    def test_jsonl_output(self, tmp_path):
        system = make_system(SafetyMode.BC_BCC)
        trace = EventTrace.attach(system)
        violate(system)
        path = tmp_path / "events.jsonl"
        count = trace.to_jsonl(path)
        assert count == 1
        record = json.loads(path.read_text().splitlines()[0])
        assert record["kind"] == "violation"
        assert "paddr" in record


class TestEvents:
    def test_subscribers_run_in_order_per_kind(self):
        events = Events()
        seen = []
        events.subscribe("lifecycle", lambda *p: seen.append(("first", p)))
        events.subscribe("lifecycle", lambda *p: seen.append(("second", p)))
        events.emit("lifecycle", "reset", "gpu0", {"epoch": 2})
        events.emit("recovery", "outcome", {"outcome": "retried"})
        assert seen == [
            ("first", ("reset", "gpu0", {"epoch": 2})),
            ("second", ("reset", "gpu0", {"epoch": 2})),
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="crossing"):
            Events().subscribe("crossing", print)

    def test_clear_empties_the_lists_emitters_hold(self):
        events = Events()
        held = {kind: events.subscribers(kind) for kind in EVENT_KINDS}
        for kind in EVENT_KINDS:
            events.subscribe(kind, print)
        events.clear()
        assert all(held[kind] is events.subscribers(kind) for kind in EVENT_KINDS)
        assert not any(held.values())
