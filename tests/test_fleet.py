"""Tests for the fault-tolerant distributed worker fleet (repro.fleet).

Covers the binary frame layer (length-prefixed JSON over the service
wire module), the seeded network fault injection transport, lease
bookkeeping (expiry, reassignment, the retry ledger's charges, heartbeat
reconciliation, foreign RESULTs, announced heartbeat intervals),
worker-side campaign switches, duplicate-ASSIGN memory and revocation,
end-to-end campaigns over real sockets (clean, chaotic, and with a
SIGKILL'd worker), and graceful degradation to the local pool when the
fleet has no workers.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import sweep
from repro.errors import FleetError
from repro.experiments import common, fig6
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.fleet import FleetCoordinator, FleetWorker, chaos_plan, protocol
from repro.fleet.coordinator import _Campaign, _Lease, _WorkerState
from repro.fleet.transport import FaultyTransport
from repro.fleet import worker as fleet_worker
from repro.fleet.worker import sanitize_worker_id
from repro.journal import RunJournal, shard_path
from repro.service.wire import WireError, encode_frame, read_frame
from repro.sim.config import GPUThreading, SafetyMode
from repro.sweep import SWEEP_CAMPAIGN
from repro.supervisor import (
    ERROR_CRASH,
    ERROR_DEADLINE,
    ERROR_TRANSIENT,
    SupervisorPolicy,
    SupervisorStats,
    shared_pool,
    traced_call,
)

SCALE = 0.05


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common.clear_cache()
    yield
    common.clear_cache()


def _cells(count=4):
    return [
        sweep.Cell(
            workload="bfs",
            safety=SafetyMode.ATS_ONLY,
            threading=GPUThreading.MODERATELY,
            ops_scale=SCALE,
            seed=1234 + i,
        )
        for i in range(count)
    ]


def _reader(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    """A reader already holding ``data``. Build it inside a running loop:
    outside one the reader asks for the thread's current loop, and once
    any earlier test has called ``asyncio.run`` the thread has none."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def _run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def _read_one(data: bytes, **kwargs):
    async def read():
        return await read_frame(_reader(data), **kwargs)

    return _run(read())


def _read_all(data: bytes):
    """Every frame in ``data``, in order."""

    async def read():
        reader = _reader(data)
        frames = []
        frame = await read_frame(reader)
        while frame is not None:
            frames.append(frame)
            frame = await read_frame(reader)
        return frames

    return _run(read())


class TestFraming:
    def test_roundtrip(self):
        frame = protocol.heartbeat("w1", held=["a", "b"], running=2)
        assert _read_one(encode_frame(frame)) == frame

    def test_torn_length_prefix_is_eof(self):
        assert _read_one(b"\x00\x00") is None

    def test_torn_body_is_eof(self):
        data = encode_frame({"type": "hello"})
        assert _read_one(data[:-3]) is None

    def test_multiple_frames_in_one_stream(self):
        async def read_three():
            reader = _reader(encode_frame({"n": 1}) + encode_frame({"n": 2}))
            return [await read_frame(reader) for _ in range(3)]

        first, second, third = _run(read_three())
        assert first == {"n": 1}
        assert second == {"n": 2}
        assert third is None

    def test_reads_after_asyncio_run_left_no_current_loop(self):
        """``asyncio.run`` leaves the thread with no current loop; a
        frame read afterwards must not depend on one."""
        asyncio.run(asyncio.sleep(0))
        frame = protocol.heartbeat("w1", held=[], running=0)
        assert _read_one(encode_frame(frame)) == frame

    def test_oversized_encode_rejected(self):
        with pytest.raises(WireError):
            encode_frame({"blob": "x" * 64}, max_frame=16)

    def test_oversized_read_rejected(self):
        data = encode_frame({"blob": "x" * 1024})
        with pytest.raises(WireError):
            _read_one(data, max_frame=16)

    def test_undecodable_body_rejected(self):
        import struct

        body = b"\xff\xfe not json"
        data = struct.pack(">I", len(body)) + body
        with pytest.raises(WireError):
            _read_one(data)


def test_oversized_read_guard_is_prefix_based():
    """A huge declared length raises before any body bytes arrive."""
    import struct

    async def read():
        await read_frame(_reader(struct.pack(">I", 1 << 30), eof=False))

    with pytest.raises(WireError):
        _run(read())


# ---------------------------------------------------------------------------
# fault-injecting transport
# ---------------------------------------------------------------------------


class _CaptureWriter:
    def __init__(self):
        self.chunks = []
        self.closed = False

    def write(self, data):
        self.chunks.append(bytes(data))

    async def drain(self):
        pass

    def close(self):
        self.closed = True


def _faulty(specs, feed=b""):
    """A faulty transport over ``feed``; call it inside a running loop."""
    writer = _CaptureWriter()
    transport = FaultyTransport(_reader(feed), writer, plan=FaultPlan(7, specs))
    transport.bind("w")
    return transport, writer


class TestFaultyTransport:
    def test_drop_swallows_one_send(self):
        specs = [FaultSpec(FaultKind.DROP, "fleet.w.out", 1.0, max_count=1)]

        async def scenario():
            transport, writer = _faulty(specs)
            await transport.send({"n": 1})  # dropped
            await transport.send({"n": 2})  # passes
            return transport, writer

        transport, writer = _run(scenario())
        assert [_read_one(c) for c in writer.chunks] == [{"n": 2}]
        assert transport.counters["frames_dropped"] == 1

    def test_dup_frame_sends_twice(self):
        specs = [FaultSpec(FaultKind.DUP_FRAME, "fleet.w.out", 1.0, max_count=1)]

        async def scenario():
            transport, writer = _faulty(specs)
            await transport.send({"n": 1})
            return transport, writer

        transport, writer = _run(scenario())
        assert [_read_one(c) for c in writer.chunks] == [{"n": 1}, {"n": 1}]
        assert transport.counters["frames_duplicated"] == 1

    def test_partition_blacks_out_both_directions(self):
        specs = [
            FaultSpec(
                FaultKind.PARTITION, "fleet.w.out", 1.0, max_count=1, param=2
            )
        ]
        feed = encode_frame({"in": 1}) + encode_frame({"in": 2})

        async def scenario():
            transport, writer = _faulty(specs, feed=feed)
            await transport.send({"out": 1})  # opens the partition, swallowed
            await transport.send({"out": 2})  # blackout frame 1 of 2
            got = await transport.recv()  # blackout frame 2 of 2 -> {"in": 2}
            await transport.send({"out": 3})  # link restored
            return got, transport, writer

        got, transport, writer = _run(scenario())
        assert got == {"in": 2}
        assert [_read_one(c) for c in writer.chunks] == [{"out": 3}]
        assert transport.counters["partitions"] == 1
        assert transport.counters["frames_partitioned"] == 2

    def test_recv_drop_and_dup(self):
        specs = [FaultSpec(FaultKind.DROP, "fleet.w.in", 1.0, max_count=1)]
        feed = encode_frame({"n": 1}) + encode_frame({"n": 2})

        async def scenario():
            transport, _ = _faulty(specs, feed=feed)
            return await transport.recv()

        assert _run(scenario()) == {"n": 2}

        specs = [FaultSpec(FaultKind.DUP_FRAME, "fleet.w.in", 1.0, max_count=1)]

        async def scenario2():
            transport, _ = _faulty(specs, feed=encode_frame({"n": 1}))
            first = await transport.recv()
            second = await transport.recv()
            return first, second

        assert _run(scenario2()) == ({"n": 1}, {"n": 1})

    def test_seeded_plan_is_deterministic(self):
        def sequence():
            plan = chaos_plan(
                99, ["w1", "w2"], drop_rate=0.3, delay_rate=0.0, dup_rate=0.3
            )
            injector = plan.for_site("fleet.w1.out")
            return [
                (spec.kind.value if spec else None)
                for spec in (injector.draw() for _ in range(40))
            ]

        assert sequence() == sequence()
        assert any(kind for kind in sequence())


# ---------------------------------------------------------------------------
# coordinator lease bookkeeping (no sockets)
# ---------------------------------------------------------------------------


class _StubLoop:
    """The coordinator's clock and timers, advanced by hand."""

    def __init__(self):
        self.now = 0.0
        self.timers = []

    def time(self):
        return self.now

    def call_later(self, delay, callback, *args):
        self.timers.append((self.now + delay, callback, args))

    def advance(self, seconds):
        self.now += seconds
        due = [timer for timer in self.timers if timer[0] <= self.now]
        self.timers = [timer for timer in self.timers if timer[0] > self.now]
        for _, callback, args in due:
            callback(*args)


class _StubTransport:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class _AsyncCaptureTransport(_StubTransport):
    def __init__(self):
        super().__init__()
        self.frames = []

    async def send(self, frame):
        self.frames.append(frame)


def _campaign(cells=3, policy=SupervisorPolicy()):
    return _Campaign(
        campaign_id="camp",
        kind=SWEEP_CAMPAIGN,
        cells=_cells(cells),
        fresh=False,
        run_id=None,
        journal_dir=None,
        on_entry=None,
        policy=policy,
        stats=SupervisorStats(),
    )


def _stub_coordinator(**kwargs):
    coord = FleetCoordinator(**kwargs)
    coord._loop = _StubLoop()
    coord._loop.now = 100.0
    return coord


def _grant(camp, ws, lease_id, index):
    """Make ``lease_id`` a live lease on ``index``, held by ``ws``."""
    camp.granted[lease_id] = index
    camp.leases[lease_id] = _Lease(lease_id, index, ws.worker_id, granted=0.0)
    ws.held.add(lease_id)


def _lose_lease(coord, camp, index, reason, held=1.0):
    """Expire a lease on ``index`` granted ``held`` seconds ago."""
    lease_id = f"camp:{index}:{coord.stats['expired_leases']}"
    lease = _Lease(lease_id, index, "w1", granted=coord._loop.now - held)
    camp.leases[lease_id] = lease
    coord._expire_lease(camp, lease, reason)


class TestLeaseBookkeeping:
    def test_expiry_reassigns_with_charge(self):
        """A lost lease rides free three times; the fourth loss is a
        charged attempt, re-leased only after the policy's backoff."""
        coord = _stub_coordinator()
        camp = _campaign()
        camp.pending.clear()
        for _ in range(3):
            _lose_lease(coord, camp, 0, "worker lost: test")
            assert list(camp.pending) == [0]
            camp.pending.clear()
        assert camp.ledger.states[0].attempts == 0
        _lose_lease(coord, camp, 0, "worker lost: test")
        assert camp.ledger.states[0].attempts == 1
        assert list(camp.pending) == []
        coord._loop.advance(camp.ledger.policy.backoff(1, "0:1"))
        assert list(camp.pending) == [0]
        assert coord.stats["expired_leases"] == 4
        assert coord.stats["reassigned"] == 4
        assert camp.ledger.stats.retries == 1
        assert 0 not in camp.outcomes

    def test_poison_bound_finalizes_as_crash(self):
        """A cell that only loses leases is finalized on its sixth loss:
        three free rides, then the default policy's three attempts."""
        coord = _stub_coordinator()
        camp = _campaign()
        for loss in range(6):
            assert 0 not in camp.outcomes, f"finalized after {loss} losses"
            _lose_lease(coord, camp, 0, "worker lost: test")
            coord._loop.advance(10.0)  # past any retry backoff
        entry = camp.outcomes[0]
        assert (entry["ok"], entry["attempts"]) == (False, 3)
        assert entry["error_kind"] == ERROR_CRASH
        assert entry["error"] == "FleetError: lease expired (worker lost: test)"
        assert coord.stats["finalized_failures"] == 1
        assert camp.ledger.stats.retries == 2

    def test_lost_lease_past_its_deadline_is_charged_as_deadline(self):
        coord = _stub_coordinator(lease_seconds=5.0)
        camp = _campaign()
        for _ in range(6):
            _lose_lease(coord, camp, 0, "lease deadline", held=6.0)
            coord._loop.advance(10.0)
        entry = camp.outcomes[0]
        assert (entry["ok"], entry["attempts"]) == (False, 3)
        assert entry["error_kind"] == ERROR_DEADLINE

    def test_heartbeat_reconciliation_expires_unheld_lease(self):
        coord = FleetCoordinator(heartbeat_seconds=0.5)
        coord._loop = _StubLoop()
        coord._loop.now = 10.0
        camp = _campaign()
        ws = _WorkerState("w1", _StubTransport())
        ws.last_seen = 10.0
        ws.reported_held = {"camp:1:2"}  # knows about a different lease
        ws.report_time = 10.0
        coord._workers["w1"] = ws
        lease = _Lease("camp:0:1", 0, "w1", granted=8.0)  # 2s > 2x heartbeat
        camp.leases[lease.lease_id] = lease
        ws.held.add(lease.lease_id)
        camp.pending.clear()
        coord._check_expiries(camp)
        assert "camp:0:1" not in camp.leases
        assert list(camp.pending) == [0]
        coord._loop = None

    def test_lease_deadline_expires_even_if_reported_held(self):
        coord = FleetCoordinator(heartbeat_seconds=0.5, lease_seconds=1.0)
        coord._loop = _StubLoop()
        coord._loop.now = 10.0
        camp = _campaign()
        ws = _WorkerState("w1", _StubTransport())
        ws.last_seen = 10.0
        ws.reported_held = {"camp:0:1"}
        ws.report_time = 10.0
        coord._workers["w1"] = ws
        lease = _Lease("camp:0:1", 0, "w1", granted=5.0)
        camp.leases[lease.lease_id] = lease
        ws.held.add(lease.lease_id)
        camp.pending.clear()
        coord._check_expiries(camp)
        assert list(camp.pending) == [0]
        coord._loop = None

    def test_dead_worker_expires_all_its_leases(self):
        coord = FleetCoordinator(heartbeat_seconds=0.1)
        coord._loop = _StubLoop()
        coord._loop.now = 10.0
        camp = _campaign()
        coord._camp = camp
        ws = _WorkerState("w1", _StubTransport())
        ws.interval = 0.1  # it announced the campaign cadence
        ws.last_seen = 9.0  # > 3x heartbeat ago
        coord._workers["w1"] = ws
        for index in range(2):
            lease = _Lease(f"camp:{index}:1", index, "w1", granted=9.0)
            camp.leases[lease.lease_id] = lease
            ws.held.add(lease.lease_id)
        camp.pending.clear()
        coord._check_expiries(camp)
        assert "w1" not in coord._workers
        assert coord.stats["dead_workers"] == 1
        assert sorted(camp.pending) == [0, 1]
        coord._camp = None
        coord._loop = None

    def test_duplicate_result_is_ignored(self):
        coord = FleetCoordinator()
        camp = _campaign()
        coord._camp = camp
        ws = _WorkerState("w1", _StubTransport())
        key = SWEEP_CAMPAIGN.journal_key(camp.cells[0])
        camp.granted.update({"camp:0:1": 0, "camp:0:2": 0})
        entry = {"label": "x", "ok": True, "result": None}
        coord._on_result(ws, protocol.result("camp:0:1", key, entry))
        coord._on_result(ws, protocol.result("camp:0:2", key, entry))
        assert coord.stats["results"] == 1
        assert coord.stats["duplicate_results"] == 1
        assert coord.stats["foreign_results"] == 0
        coord._camp = None

    def test_results_for_foreign_leases_or_keys_are_dropped(self):
        """A RESULT counts only for a lease the live campaign granted,
        with that lease's cell key: another campaign's lease and a live
        lease carrying another cell's key are both dropped and counted."""
        coord = _stub_coordinator()
        coord._telemetry_fh = telemetry = io.StringIO()
        camp = _campaign()
        coord._camp = camp
        ws = _WorkerState("w1", _AsyncCaptureTransport())
        coord._workers["w1"] = ws
        _run(coord._assign(camp))
        (live,) = [lease.lease_id for lease in camp.leases.values() if lease.index == 1]
        key_of = [SWEEP_CAMPAIGN.journal_key(cell) for cell in camp.cells]
        entry = {"label": "x", "ok": True, "result": None}
        coord._on_result(ws, protocol.result("other-campaign:1:7", key_of[1], entry))
        coord._on_result(ws, protocol.result(live, key_of[0], entry))
        assert camp.outcomes == {}
        assert coord.stats["foreign_results"] == 2
        assert coord.stats["results"] == 0
        events = [json.loads(line) for line in telemetry.getvalue().splitlines()]
        assert [e["lease"] for e in events if e["event"] == "foreign-result"] == [
            "other-campaign:1:7",
            live,
        ]
        # The lease is still live, and its own cell's result lands.
        coord._on_result(ws, protocol.result(live, key_of[1], entry))
        assert sorted(camp.outcomes) == [1]
        assert live not in camp.leases
        coord._telemetry_fh = None
        coord._camp = None

    def test_assign_does_not_shorten_the_interval_a_worker_announced(self):
        """A worker is reaped after three of the intervals *it*
        announced: an ASSIGN naming a 0.2 s cadence does not hold a
        worker last heard 0.8 s ago on the 1 s default to 0.6 s."""
        coord = _stub_coordinator(heartbeat_seconds=0.2)
        camp = _campaign()
        coord._camp = camp
        ws = _WorkerState("w1", _AsyncCaptureTransport())
        coord._workers["w1"] = ws
        ws.last_seen = 99.2
        coord._on_heartbeat(
            ws, protocol.heartbeat("w1", held=[], running=0, interval=1.0)
        )
        _run(coord._assign(camp))
        (frame,) = ws.transport.frames
        assert frame["campaign"]["heartbeat_seconds"] == 0.2
        coord._reap_dead_workers()
        assert "w1" in coord._workers
        # Its next heartbeat announces the new cadence, and from then on
        # three silent 0.2 s intervals are enough.
        ws.last_seen = coord._loop.now  # as _handle stamps every frame
        coord._on_heartbeat(
            ws, protocol.heartbeat("w1", held=[], running=0, interval=0.2)
        )
        coord._loop.advance(0.7)
        coord._reap_dead_workers()
        assert "w1" not in coord._workers
        assert coord.stats["dead_workers"] == 1
        coord._camp = None

    def test_retryable_failure_is_reassigned_not_finalized(self):
        """A failed RESULT is charged and re-enters pending only after
        the backoff; the retry's success counts both attempts."""
        coord = _stub_coordinator()
        camp = _campaign(policy=SupervisorPolicy(backoff_base=0.5, jitter=0.0))
        camp.pending.clear()
        coord._camp = camp
        ws = _WorkerState("w1", _StubTransport())
        key = SWEEP_CAMPAIGN.journal_key(camp.cells[0])
        _grant(camp, ws, "camp:0:1", 0)
        entry = {"label": "x", "ok": False, "error_kind": ERROR_CRASH, "error": "boom"}
        coord._on_result(ws, protocol.result("camp:0:1", key, entry))
        assert 0 not in camp.outcomes
        assert camp.ledger.states[0].attempts == 1
        coord._loop.advance(0.49)
        assert list(camp.pending) == []
        coord._loop.advance(0.02)
        assert list(camp.pending) == [0]
        _grant(camp, ws, "camp:0:2", 0)
        ok = {"label": "x", "ok": True, "attempts": 1, "result": None}
        coord._on_result(ws, protocol.result("camp:0:2", key, ok))
        assert camp.outcomes[0]["attempts"] == 2
        coord._camp = None

    def test_failed_result_is_charged_once_per_lease(self):
        """A failed RESULT delivered twice (a duplicated frame) is one
        failed attempt: charged and re-queued once, the copy counted as
        a duplicate."""
        coord = _stub_coordinator()
        camp = _campaign(policy=SupervisorPolicy(backoff_base=0.5, jitter=0.0))
        camp.pending.clear()
        coord._camp = camp
        ws = _WorkerState("w1", _StubTransport())
        coord._workers["w1"] = ws
        key = SWEEP_CAMPAIGN.journal_key(camp.cells[0])
        _grant(camp, ws, "camp:0:1", 0)
        entry = {"label": "x", "ok": False, "error_kind": ERROR_CRASH, "error": "boom"}
        for _ in range(2):
            coord._on_result(ws, protocol.result("camp:0:1", key, entry))
        coord._loop.advance(10.0)  # past every backoff
        assert camp.ledger.states[0].attempts == 1
        assert camp.ledger.stats.retries == 1
        assert coord.stats["reassigned"] == 1
        assert coord.stats["duplicate_results"] == 1
        assert list(camp.pending) == [0]
        assert 0 not in camp.outcomes
        coord._workers.clear()
        coord._camp = None

    def test_revoked_leases_return_to_pending(self):
        coord = FleetCoordinator()
        camp = _campaign()
        camp.pending.clear()
        coord._camp = camp
        ws = _WorkerState("w1", _StubTransport())
        lease = _Lease("camp:0:1", 0, "w1", granted=0.0)
        camp.leases[lease.lease_id] = lease
        ws.held.add(lease.lease_id)
        ws.steal_inflight = True
        coord._on_revoked(
            ws, protocol.revoked([{"lease_id": "camp:0:1", "index": 0}])
        )
        assert list(camp.pending) == [0]
        assert coord.stats["stolen"] == 1
        assert ws.steal_inflight is False
        coord._camp = None

    def test_map_cells_requires_started_coordinator(self):
        with pytest.raises(FleetError):
            FleetCoordinator().map_cells(_cells(1), SWEEP_CAMPAIGN)

    def test_half_open_unwelcomed_worker_is_reaped(self):
        coord = FleetCoordinator(heartbeat_seconds=0.5)
        coord._loop = _StubLoop()
        coord._loop.now = 100.0
        stale = _WorkerState("stale", _StubTransport())
        stale.last_seen = 90.0  # silent well past three default intervals
        fresh = _WorkerState("fresh", _StubTransport())
        fresh.last_seen = 99.5  # heartbeating before any ASSIGN: stays
        coord._workers = {"stale": stale, "fresh": fresh}
        coord._reap_dead_workers()
        assert "stale" not in coord._workers
        assert stale.transport.closed
        assert "fresh" in coord._workers
        assert coord.stats["dead_workers"] == 1
        coord._loop = None


# ---------------------------------------------------------------------------
# worker-side lease handling (no sockets)
# ---------------------------------------------------------------------------


def _crashing_traced_call(fn, task):
    """``traced_call`` in which a cell tagged ``die`` SIGKILLs its pool
    worker and one tagged ``slow`` is still running when it does."""
    tag = task[0].tag
    if tag == "die":
        time.sleep(0.3)
        os.kill(os.getpid(), signal.SIGKILL)
    if tag == "slow":
        time.sleep(2.0)
    return traced_call(fn, task)


#: A module-level lambda: pickle looks it up by a name it does not have.
_unpicklable_call = lambda fn, task: traced_call(fn, task)  # noqa: E731


def _assign_frame(cells, leases, campaign_id="camp", heartbeat_seconds=0.5, **context):
    """An ASSIGN of sweep campaign ``campaign_id``; ``leases`` maps each
    lease id to its index into ``cells``."""
    return protocol.assign(
        protocol.campaign(campaign_id, "sweep", False, heartbeat_seconds, **context),
        [
            {"lease_id": lease_id, "index": index, "cell": cells[index].to_dict()}
            for lease_id, index in leases.items()
        ],
    )


def _recording_compute(cells, calls, outcome=((None, False), None, 0.01, None)):
    """A ``_compute`` that logs each cell's index into ``cells`` and
    returns ``outcome`` (by default: ok, no payload to encode)."""

    async def compute(cell):
        calls.append(cells.index(cell))
        return outcome

    return compute


class TestWorkerLeases:
    def test_sanitize_worker_id(self):
        assert sanitize_worker_id("host/a:b c") == "host_a_b_c"
        assert sanitize_worker_id("") == "worker"
        assert sanitize_worker_id("ok-1.2_3") == "ok-1.2_3"

    def test_duplicate_assign_answers_from_done_memory(self):
        worker = FleetWorker("127.0.0.1", 1, worker_id="w1", slots=1)
        worker._campaign_id, worker._kind = "camp", SWEEP_CAMPAIGN
        worker._transport = transport = _AsyncCaptureTransport()
        entry = {"label": "done", "ok": True}
        worker._done[1] = ("key-1", entry, 7)

        _run(worker._on_assign(_assign_frame(_cells(2), {"L1": 1})))
        assert len(transport.frames) == 1
        frame = transport.frames[0]
        assert frame["type"] == protocol.RESULT
        assert (frame["lease_id"], frame["key"]) == ("L1", "key-1")
        assert frame["entry"] == entry
        assert frame["seq"] == 7
        assert worker.cells_executed == 0  # answered from memory, no compute
        assert "L1" not in worker._leases

    def _drive(self, worker, frame):
        """Run one ASSIGN through the worker, draining spawned tasks."""

        async def scenario():
            await worker._on_assign(frame)
            tasks = [
                t
                for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            if tasks:
                await asyncio.gather(*tasks)

        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(scenario())
        finally:
            loop.close()

    def test_failed_cell_is_not_memoized_and_reexecutes(self):
        worker = FleetWorker("127.0.0.1", 1, worker_id="w1", slots=1)
        worker._transport = transport = _AsyncCaptureTransport()
        cells, calls = _cells(1), []
        worker._compute = _recording_compute(
            cells, calls, (None, "transient boom", 0.01, ERROR_TRANSIENT)
        )
        self._drive(worker, _assign_frame(cells, {"L1": 0}))
        assert calls == [0]
        assert worker._done == {}  # failures are never answered from memory
        assert transport.frames[-1]["entry"]["ok"] is False
        # A fresh lease for the failed index is the coordinator's retry:
        # it must re-execute, not replay the stored failure.
        self._drive(worker, _assign_frame(cells, {"L2": 0}))
        assert calls == [0, 0]
        assert len(transport.frames) == 2

    def test_successful_cell_is_memoized_for_duplicate_assigns(self):
        worker = FleetWorker("127.0.0.1", 1, worker_id="w1", slots=1)
        worker._transport = transport = _AsyncCaptureTransport()
        cells, calls = _cells(1), []
        worker._compute = _recording_compute(cells, calls)
        self._drive(worker, _assign_frame(cells, {"L1": 0}))
        assert calls == [0]
        assert 0 in worker._done
        self._drive(worker, _assign_frame(cells, {"L2": 0}))
        assert calls == [0]  # answered from memory, no recompute
        assert len(transport.frames) == 2

    def test_one_crash_replaces_the_pool_once(self, monkeypatch):
        """Both in-flight cells of a broken pool fail; only the first
        handler replaces the pool, and the next cell runs on it."""
        monkeypatch.setattr(fleet_worker, "traced_call", _crashing_traced_call)
        worker = FleetWorker("127.0.0.1", 1, worker_id="w1", slots=2)
        die, slow, healthy = _cells(3)
        cells = [
            dataclasses.replace(die, tag="die"),
            dataclasses.replace(slow, tag="slow"),
            healthy,
        ]
        worker._transport = transport = _AsyncCaptureTransport()
        before = shared_pool.replacements
        self._drive(worker, _assign_frame(cells, {"L0": 0, "L1": 1}))
        assert shared_pool.replacements - before == 1
        assert sorted(frame["lease_id"] for frame in transport.frames) == ["L0", "L1"]
        assert all(
            frame["entry"]["error_kind"] == ERROR_CRASH for frame in transport.frames
        )
        self._drive(worker, _assign_frame(cells, {"L2": 2}))
        assert transport.frames[-1]["lease_id"] == "L2"
        assert transport.frames[-1]["entry"]["ok"]
        assert shared_pool.replacements - before == 1

    def test_unpicklable_call_is_reported_as_a_crash(self, monkeypatch):
        """A pool failure other than a dead process still answers the
        lease with a crash RESULT instead of silently dropping it."""
        monkeypatch.setattr(fleet_worker, "traced_call", _unpicklable_call)
        worker = FleetWorker("127.0.0.1", 1, worker_id="w1", slots=1)
        worker._transport = transport = _AsyncCaptureTransport()
        self._drive(worker, _assign_frame(_cells(1), {"L1": 0}))
        assert len(transport.frames) == 1
        entry = transport.frames[0]["entry"]
        assert (entry["ok"], entry["error_kind"]) == (False, ERROR_CRASH)
        assert "PicklingError" in entry["error"]
        assert worker._leases == {}

    def test_assign_of_a_new_campaign_switches_the_worker(self, tmp_path):
        """A worker that last ran campaign A, handed campaign B's lease on
        the same index, runs B's recipe, reports B's cell key, journals
        it to B's shard and adopts B's cadence: A's finished-index
        memory cannot answer for B."""
        worker = FleetWorker("127.0.0.1", 1, worker_id="w1", slots=1)
        worker._transport = transport = _AsyncCaptureTransport()
        a_cell, b_cell = _cells(2)
        cells, calls = [a_cell, b_cell], []
        worker._compute = _recording_compute(cells, calls)
        try:
            self._drive(
                worker,
                _assign_frame([a_cell], {"A:0:1": 0}, "A", 0.5,
                              run_id="run-a", journal_dir=str(tmp_path)),
            )
            assert 0 in worker._done
            self._drive(
                worker,
                _assign_frame([b_cell], {"B:0:1": 0}, "B", 0.25,
                              run_id="run-b", journal_dir=str(tmp_path)),
            )
        finally:
            worker._close_shard()
        assert calls == [0, 1]  # B's cell ran: not answered from A's memory
        keys = [SWEEP_CAMPAIGN.journal_key(cell) for cell in cells]
        assert [(f["lease_id"], f["key"]) for f in transport.frames] == [
            ("A:0:1", keys[0]),
            ("B:0:1", keys[1]),
        ]
        assert worker._heartbeat_seconds == 0.25
        for run_id, key in (("run-a", keys[0]), ("run-b", keys[1])):
            lines = shard_path(run_id, "w1", tmp_path).read_text().splitlines()
            assert [json.loads(line).get("key") for line in lines[1:]] == [key]

    def test_assign_of_the_current_campaign_keeps_memory(self):
        """An ASSIGN of the campaign the worker already serves (after a
        reconnect, say) keeps its finished-index memory."""
        worker = FleetWorker("127.0.0.1", 1, worker_id="w1", slots=1)
        worker._transport = _AsyncCaptureTransport()
        cells, calls = _cells(1), []
        worker._compute = _recording_compute(cells, calls)
        self._drive(worker, _assign_frame(cells, {"camp:0:1": 0}))
        worker._transport = transport = _AsyncCaptureTransport()  # reconnected
        self._drive(worker, _assign_frame(cells, {"camp:0:2": 0}))
        assert calls == [0]
        assert 0 in worker._done
        assert [frame["lease_id"] for frame in transport.frames] == ["camp:0:2"]

    def test_revoke_releases_only_queued_leases(self):
        worker = FleetWorker("127.0.0.1", 1, worker_id="w1", slots=1)
        worker._leases = {"L1": 0, "L2": 1, "L3": 2}
        worker._running = {"L1"}  # running: not preemptible
        transport = _AsyncCaptureTransport()

        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(
                worker._on_revoke(transport, protocol.revoke(count=2))
            )
        finally:
            loop.close()
        frame = transport.frames[0]
        assert frame["type"] == protocol.REVOKED
        released = {item["lease_id"] for item in frame["leases"]}
        assert released == {"L2", "L3"}
        assert set(worker._leases) == {"L1"}


# ---------------------------------------------------------------------------
# end-to-end over real sockets
# ---------------------------------------------------------------------------


def _spawn_worker_thread(coord, worker_id, slots=1):
    worker = FleetWorker(
        "127.0.0.1",
        coord.port,
        worker_id=worker_id,
        slots=slots,
        reconnect_seconds=0.1,
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def _join_worker(worker, thread):
    worker.stop()
    thread.join(10.0)
    assert not thread.is_alive(), f"worker {worker.worker_id} outlived stop()"


def _wait_connected(coord, count=1, timeout=10.0):
    deadline = time.monotonic() + timeout
    while coord.stats_snapshot()["workers_connected"] < count:
        assert time.monotonic() < deadline, "worker never connected"
        time.sleep(0.02)


class TestFleetEndToEnd:
    def test_clean_campaign_completes_and_shuts_workers_down(self, tmp_path):
        telemetry = tmp_path / "telemetry.jsonl"
        cells = _cells(4)
        with FleetCoordinator(
            heartbeat_seconds=0.2, wait_seconds=10.0, telemetry_path=telemetry
        ) as coord:
            worker, thread = _spawn_worker_thread(coord, "w1", slots=2)
            outcomes, leftovers = coord.map_cells(cells, SWEEP_CAMPAIGN)
            coord.shutdown_fleet()
            thread.join(10.0)  # SHUTDOWN frame stops the worker itself
            assert not thread.is_alive()
        assert leftovers == []
        assert sorted(outcomes) == [0, 1, 2, 3]
        assert all(entry["ok"] for entry in outcomes.values())
        assert all(
            entry["worker"] == "w1" for entry in outcomes.values()
        )
        events = [
            json.loads(line) for line in telemetry.read_text().splitlines()
        ]
        kinds = {event["event"] for event in events}
        assert {"campaign-start", "lease-granted", "result", "campaign-end"} <= kinds

    def test_campaign_under_frame_chaos_is_lossless(self):
        cells = _cells(6)
        plan = chaos_plan(
            4242,
            ["wa", "wb"],
            drop_rate=0.15,
            delay_rate=0.1,
            delay_ms=10,
            dup_rate=0.15,
            partition_rate=0.05,
            partition_frames=4,
            max_partitions=1,
        )
        with FleetCoordinator(
            heartbeat_seconds=0.2,
            lease_seconds=15.0,
            wait_seconds=10.0,
            fault_plan=plan,
        ) as coord:
            wa, ta = _spawn_worker_thread(coord, "wa", slots=2)
            wb, tb = _spawn_worker_thread(coord, "wb", slots=2)
            try:
                outcomes, leftovers = coord.map_cells(cells, SWEEP_CAMPAIGN)
            finally:
                _join_worker(wa, ta)
                _join_worker(wb, tb)
        assert leftovers == []
        assert sorted(outcomes) == list(range(6))
        assert all(entry["ok"] for entry in outcomes.values())
        stats = coord.stats_snapshot()
        # The seeded plan must actually have injected something.
        injected = (
            stats.get("frames_dropped", 0)
            + stats.get("frames_duplicated", 0)
            + stats.get("frames_delayed", 0)
            + stats.get("frames_partitioned", 0)
        )
        assert injected > 0, stats

    def test_sigkilled_worker_is_reassigned(self, tmp_path):
        cells = _cells(4)
        with FleetCoordinator(
            heartbeat_seconds=0.2, lease_seconds=10.0, wait_seconds=15.0
        ) as coord:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(p) for p in sys.path if p]
            )
            doomed = subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    "import time\n"
                    "from repro.fleet import FleetWorker\n"
                    "import repro.fleet.worker as fw\n"
                    "original = fw.traced_call\n"
                    "def slow(fn, task):\n"
                    "    time.sleep(30)\n"  # never finishes: must be killed
                    "    return original(fn, task)\n"
                    "fw.traced_call = slow\n"
                    f"FleetWorker('127.0.0.1', {coord.port}, "
                    "worker_id='doomed', slots=1).run()",
                ],
                env=env,
            )
            results = {}
            done = threading.Event()

            def run_campaign():
                results["value"] = coord.map_cells(cells, SWEEP_CAMPAIGN)
                done.set()

            campaign = threading.Thread(target=run_campaign, daemon=True)
            campaign.start()
            # Let the doomed worker connect and take leases, then kill it.
            deadline = time.time() + 10.0
            while coord.stats["assigned"] == 0 and time.time() < deadline:
                time.sleep(0.05)
            assert coord.stats["assigned"] > 0, "doomed worker never got leases"
            doomed.send_signal(signal.SIGKILL)
            doomed.wait(10.0)
            # A healthy worker joins and finishes everything.
            rescue, rescue_thread = _spawn_worker_thread(coord, "rescue", slots=2)
            try:
                assert done.wait(60.0), "campaign did not terminate"
            finally:
                _join_worker(rescue, rescue_thread)
            campaign.join(5.0)
        outcomes, leftovers = results["value"]
        assert leftovers == []
        assert sorted(outcomes) == [0, 1, 2, 3]
        assert all(entry["ok"] for entry in outcomes.values())
        assert all(entry["worker"] == "rescue" for entry in outcomes.values())
        assert coord.stats["dead_workers"] >= 1
        assert coord.stats["expired_leases"] >= 1
        assert coord.stats["reassigned"] >= 1

    def test_second_campaign_same_run_id_reinstalls_live_workers(self):
        """A resumed run re-indexes pending cells; surviving workers
        must execute the new cells, never replay old index memory."""

        def tagged(tag, count, base_seed):
            return [
                sweep.Cell(
                    workload="bfs",
                    safety=SafetyMode.ATS_ONLY,
                    threading=GPUThreading.MODERATELY,
                    ops_scale=SCALE,
                    seed=base_seed + i,
                    tag=tag,
                )
                for i in range(count)
            ]

        first = tagged("first", 3, 100)
        second = tagged("second", 2, 500)  # a re-indexed pending set
        with FleetCoordinator(heartbeat_seconds=0.2, wait_seconds=10.0) as coord:
            worker, thread = _spawn_worker_thread(coord, "w1", slots=2)
            try:
                out1, left1 = coord.map_cells(
                    first, SWEEP_CAMPAIGN, run_id="resume-run"
                )
                out2, left2 = coord.map_cells(
                    second, SWEEP_CAMPAIGN, run_id="resume-run"
                )
            finally:
                _join_worker(worker, thread)
        assert left1 == [] and left2 == []
        assert sorted(out1) == [0, 1, 2]
        assert sorted(out2) == [0, 1]
        assert all(e["ok"] for e in out2.values())
        # With stale index memory the worker would answer from the
        # first campaign's entries — visible as "first/..." labels.
        assert [out2[i]["label"] for i in sorted(out2)] == [
            cell.label for cell in second
        ]

    def test_stop_ends_a_connected_idle_worker(self):
        """``stop()`` closes the live connection, so an idle worker's
        ``run()`` returns at once instead of waiting for a frame."""
        with FleetCoordinator(heartbeat_seconds=0.2) as coord:
            worker, thread = _spawn_worker_thread(coord, "idle")
            _wait_connected(coord)
            worker.stop()
            thread.join(2.0)
            assert not thread.is_alive()

    def test_zero_workers_degrades_to_leftovers(self):
        cells = _cells(2)
        with FleetCoordinator(heartbeat_seconds=0.1, wait_seconds=0.3) as coord:
            outcomes, leftovers = coord.map_cells(cells, SWEEP_CAMPAIGN)
        assert outcomes == {}
        assert leftovers == [0, 1]

    @pytest.mark.parametrize("version", [1, 2])
    def test_hello_of_another_protocol_version_is_closed_without_a_lease(
        self, version
    ):
        """A worker built for an older wire is told why and hung up on;
        the campaign it would have joined grants it nothing."""
        with FleetCoordinator(heartbeat_seconds=0.1, wait_seconds=0.3) as coord:
            with socket.create_connection(("127.0.0.1", coord.port), 10.0) as sock:
                hello = dict(protocol.hello("old", slots=2), protocol=version)
                sock.sendall(encode_frame(hello))
                outcomes, leftovers = coord.map_cells(_cells(2), SWEEP_CAMPAIGN)
                received = b""
                chunk = sock.recv(65536)
                while chunk:  # the coordinator closed the connection
                    received += chunk
                    chunk = sock.recv(65536)
        frames = _read_all(received)
        assert [frame["type"] for frame in frames] == [protocol.SHUTDOWN]
        assert frames[0]["reason"].startswith(f"protocol {version} refused")
        assert (outcomes, leftovers) == ({}, [0, 1])
        assert coord.stats["assigned"] == 0 and coord.stats["workers_seen"] == 0


# ---------------------------------------------------------------------------
# run_sweep integration
# ---------------------------------------------------------------------------


class TestRunSweepFleet:
    def test_fleet_sweep_resumes_and_matches_serial(self, tmp_path):
        cells = _cells(3)
        with FleetCoordinator(heartbeat_seconds=0.2) as coord:
            worker, thread = _spawn_worker_thread(coord, "w1", slots=2)
            try:
                journal = RunJournal.create("fleet-sweep-test")
                try:
                    report = sweep.run_sweep(
                        cells, workers=2, journal=journal, fleet=coord
                    )
                finally:
                    journal.close()
            finally:
                _join_worker(worker, thread)
        assert report.ok
        assert report.mode == "fleet"
        assert report.fleet is not None
        assert report.fleet["results"] == 3
        assert "fleet:" in report.render()

        # Resume: every cell rehydrates (shards merged + journal replay).
        journal = RunJournal.open("fleet-sweep-test")
        try:
            resumed = sweep.run_sweep(cells, workers=1, journal=journal)
        finally:
            journal.close()
        assert resumed.resumed_cells == 3
        assert all(out.resumed for out in resumed.outcomes)

        # Bit-identity against serial execution.
        _, mismatches = sweep.verify_identical(cells, report)
        assert mismatches == []

    def test_trace_cells_ride_the_fleet(self):
        cells = fig6.grid(
            GPUThreading.MODERATELY, workloads=["bfs", "nn"], ops_scale=SCALE
        )
        with FleetCoordinator(heartbeat_seconds=0.2) as coord:
            worker, thread = _spawn_worker_thread(coord, "w1", slots=2)
            try:
                report = sweep.run_sweep(cells, workers=1, fleet=coord)
            finally:
                _join_worker(worker, thread)
        assert report.ok and report.mode == "fleet"
        assert report.fleet is not None
        assert report.fleet["results"] == len(cells)
        # The traces crossed the wire intact: equal to a serial run's.
        assert all(out.result.border_trace for out in report.outcomes)
        _, mismatches = sweep.verify_identical(cells, report)
        assert mismatches == []

    def test_workerless_fleet_falls_back_to_local_pool(self):
        cells = _cells(2)
        with FleetCoordinator(heartbeat_seconds=0.1, wait_seconds=0.2) as coord:
            report = sweep.run_sweep(cells, workers=1, fleet=coord)
        assert report.ok
        assert report.mode != "fleet"  # local pool finished the leftovers
        assert len(report.outcomes) == 2
