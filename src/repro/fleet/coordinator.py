"""``repro.fleet.coordinator`` — lease-based fan-out across workers.

The coordinator owns a private asyncio loop in a daemon thread and a
TCP server workers dial into; :meth:`FleetCoordinator.map_cells` is the
synchronous, thread-safe bridge the sweep layer calls — it runs one
*campaign* on that loop and returns ``(outcomes, leftovers)`` where
``outcomes`` maps cell index → journal-style entry and ``leftovers``
are the indexes the fleet could not place (zero workers, abort) for
the caller's local supervised pool.

The paper's detect → contain → recover → degrade loop, applied to the
fleet itself:

========================  =============================================
failure                   response
========================  =============================================
worker dies (SIGKILL)     TCP EOF or three of its announced heartbeat
                          intervals of silence → every lease it held
                          expires → cells reassigned
network partition         heartbeats stop → same as death; a worker
                          back from the dead reconnects and its
                          duplicate results are ignored
foreign RESULT            a lease the live campaign never granted, or a
                          key that is not the lease's cell → dropped
                          and counted (``foreign_results``)
ASSIGN frame lost         lease never appears in the worker's heartbeat
                          ``held`` set → expired after a 2×heartbeat
                          grace → reassigned
RESULT frame lost         worker stops reporting the lease → reassigned
                          → worker answers from its finished-index
                          memory (no recompute)
worker wedged on a cell   lease outlives ``lease_seconds`` → reassigned
cell fails on a worker    charged to the campaign's retry ledger, as on
                          the local pool → re-leased after the backoff,
                          or finalized (poison: quarantined with a bundle)
cell kills every worker   three lost leases ride free, then each loss is
                          charged → finalized as ``crash`` or ``deadline``
coordinator dies          workers keep computing into journal shards;
                          the restarted run merges shards first and
                          re-executes nothing that finished anywhere
zero workers              campaign returns every cell as a leftover —
                          the sweep layer degrades to the local pool
========================  =============================================

Work-stealing: when the pending queue is dry and a worker sits idle,
queued (not yet started) leases are revoked from the most loaded
worker and reassigned — the tail of a campaign is bounded by the
slowest *cell*, not the slowest worker's queue.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FleetError
from repro.faults.plan import FaultPlan
from repro.fleet import protocol
from repro.fleet.transport import FaultyTransport, FrameTransport
from repro.service.wire import WireError
from repro.supervisor import (
    ERROR_ABORTED, ERROR_CRASH, ERROR_DEADLINE, ERROR_DETERMINISTIC,
    CampaignKind, RetryLedger, SupervisorPolicy, SupervisorStats,
)
from repro.sweep import journal_entry

__all__ = ["FleetCoordinator"]

OnEntryFn = Callable[[int, dict], None]


class _WorkerState:
    """The coordinator's book on one worker (survives reconnects)."""

    __slots__ = (
        "worker_id",
        "transport",
        "slots",
        "last_seen",
        "interval",
        "held",
        "reported_held",
        "report_time",
        "reported_running",
        "steal_inflight",
    )

    def __init__(self, worker_id: str, transport: FrameTransport) -> None:
        self.worker_id = worker_id
        self.transport = transport
        self.slots = 1
        self.last_seen = 0.0
        # the heartbeat cadence it last announced
        self.interval = protocol.DEFAULT_HEARTBEAT_SECONDS
        self.held: Set[str] = set()  # lease ids we believe it holds
        self.reported_held: Optional[Set[str]] = None
        self.report_time = 0.0
        self.reported_running = 0
        self.steal_inflight = False


class _Lease:
    __slots__ = ("lease_id", "index", "worker_id", "granted")

    def __init__(
        self, lease_id: str, index: int, worker_id: str, granted: float
    ) -> None:
        self.lease_id = lease_id
        self.index = index
        self.worker_id = worker_id
        self.granted = granted


class _Campaign:
    """Mutable state of one map_cells call."""

    def __init__(
        self,
        campaign_id: str,
        kind: CampaignKind,
        cells: Sequence[Any],
        fresh: bool,
        run_id: Optional[str],
        journal_dir: Optional[str],
        on_entry: Optional[OnEntryFn],
        policy: SupervisorPolicy,
        stats: SupervisorStats,
    ) -> None:
        self.id = campaign_id
        self.kind = kind
        self.cells = list(cells)
        self.fresh = fresh
        self.run_id = run_id
        self.journal_dir = journal_dir
        self.on_entry = on_entry
        self.pending: "deque[int]" = deque(range(len(cells)))
        self.leases: Dict[str, _Lease] = {}  # live leases
        self.granted: Dict[str, int] = {}  # every lease id granted -> index
        self.ledger = RetryLedger(
            self.cells, policy, stats, kind.label_of, kind.describe
        )
        self.outcomes: Dict[int, dict] = {}
        self.grant_counter = 0

    @property
    def done(self) -> bool:
        return len(self.outcomes) >= len(self.cells)


class FleetCoordinator:
    """The fleet's single control point (one per sweep host/service).

    Start it once; workers connect and stay connected across campaigns.
    ``fault_plan`` (a :class:`repro.faults.FaultPlan` with
    ``fleet.<worker_id>.{in,out}`` sites) turns every worker link into
    a :class:`~repro.fleet.transport.FaultyTransport` — the chaos gate's
    entry point. ``telemetry_path`` appends one JSON line per fleet
    event (connects, grants, expiries, steals, results), the artifact
    the CI fleet smoke uploads.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_seconds: float = 0.5,
        lease_seconds: float = 120.0,
        wait_seconds: float = 5.0,
        min_workers: int = 1,
        fault_plan: Optional[FaultPlan] = None,
        telemetry_path: Optional[Path] = None,
        log=None,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat_seconds = heartbeat_seconds
        self.lease_seconds = lease_seconds
        self.wait_seconds = wait_seconds
        self.min_workers = max(0, min_workers)
        self.fault_plan = fault_plan
        self.telemetry_path = Path(telemetry_path) if telemetry_path else None
        self.log = log or (lambda message: None)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._workers: Dict[str, _WorkerState] = {}
        self._camp: Optional[_Campaign] = None
        self._campaign_lock: Optional[asyncio.Lock] = None
        self._wake: Optional[asyncio.Event] = None
        self._telemetry_fh = None
        self._fault_counters: Dict[str, int] = {}
        self.stats: Dict[str, int] = {
            "workers_seen": 0,
            "assigned": 0,
            "results": 0,
            "duplicate_results": 0,
            "foreign_results": 0,
            "expired_leases": 0,
            "reassigned": 0,
            "stolen": 0,
            "dead_workers": 0,
            "finalized_failures": 0,
            "campaigns": 0,
        }

    # -- lifecycle (called from any thread) --------------------------------

    def start(self) -> "FleetCoordinator":
        """Bind the listener and start the coordinator thread.

        Returns once the server is accepting; with ``port=0`` the
        chosen port is in :attr:`port` afterwards.
        """
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._thread_main, name="fleet-coordinator", daemon=True
        )
        self._thread.start()
        self._started.wait(10.0)
        if self._start_error is not None:
            raise FleetError(
                f"coordinator failed to listen on {self.host}:{self.port}: "
                f"{self._start_error}"
            )
        if not self._started.is_set():
            raise FleetError("coordinator thread did not start in time")
        return self

    def stop(self) -> None:
        loop = self._loop
        if loop is None or self._thread is None:
            return
        asyncio.run_coroutine_threadsafe(self._shutdown(), loop).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(10.0)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "FleetCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def shutdown_fleet(self, reason: str = "campaign complete") -> None:
        """Tell every connected worker to exit (standalone sweeps only).

        Long-lived coordinators (the job server) never call this —
        their workers stay connected across campaigns.
        """
        loop = self._loop
        if loop is None:
            return

        async def _broadcast() -> None:
            for ws in list(self._workers.values()):
                try:
                    await ws.transport.send(protocol.shutdown(reason))
                except (WireError, ConnectionError, OSError):
                    pass

        try:
            asyncio.run_coroutine_threadsafe(_broadcast(), loop).result(5.0)
        except Exception:
            pass  # best-effort: workers also exit on reconnect timeout

    def stats_snapshot(self) -> Dict[str, int]:
        merged = dict(self.stats)
        merged.update(self._fault_counters)
        merged["workers_connected"] = len(self._workers)
        return merged

    # -- the coordinator thread --------------------------------------------

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._campaign_lock = asyncio.Lock()
        self._wake = asyncio.Event()
        if self.telemetry_path is not None:
            self.telemetry_path.parent.mkdir(parents=True, exist_ok=True)
            self._telemetry_fh = open(self.telemetry_path, "a")
        try:
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(self._handle, self.host, self.port)
                )
            except OSError as exc:
                self._start_error = exc
                return
            sockets = self._server.sockets or []
            if sockets:
                self.port = sockets[0].getsockname()[1]
            self._started.set()
            loop.run_forever()
        finally:
            self._started.set()
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            except Exception:
                pass
            loop.close()
            if self._telemetry_fh is not None:
                self._telemetry_fh.close()
                self._telemetry_fh = None

    async def _shutdown(self) -> None:
        for ws in list(self._workers.values()):
            ws.transport.close()
        self._workers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _emit(self, event: str, **fields) -> None:
        if self._telemetry_fh is None:
            return
        record = {"time": round(time.time(), 3), "event": event, **fields}
        self._telemetry_fh.write(json.dumps(record, default=str) + "\n")
        self._telemetry_fh.flush()

    # -- connections -------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        if self.fault_plan is not None:
            transport: FrameTransport = FaultyTransport(
                reader, writer, plan=self.fault_plan, counters=self._fault_counters
            )
        else:
            transport = FrameTransport(reader, writer)
        try:
            frame = await transport.recv()
        except WireError:
            transport.close()
            return
        if not isinstance(frame, dict) or frame.get("type") != protocol.HELLO:
            transport.close()
            return
        worker_id = str(frame.get("worker_id", "")) or f"anon-{id(transport)}"
        version = frame.get("protocol")
        if version != protocol.PROTOCOL_VERSION:
            # A worker built for another wire would misread the ASSIGN
            # and sit on leases it never runs: tell it why, then hang up.
            reason = f"protocol {version} refused (want {protocol.PROTOCOL_VERSION})"
            self.log(f"fleet: worker {worker_id}: {reason}")
            try:
                await transport.send(protocol.shutdown(reason))
            except (WireError, ConnectionError, OSError):
                pass
            transport.close()
            return
        if isinstance(transport, FaultyTransport):
            transport.bind(worker_id)
        now = self._now()
        ws = self._workers.get(worker_id)
        if ws is None:
            ws = _WorkerState(worker_id, transport)
            self._workers[worker_id] = ws
            self.stats["workers_seen"] += 1
        else:
            ws.transport.close()  # reconnect replaces the old stream
            ws.transport = transport
        ws.slots = max(1, int(frame.get("slots", 1)))
        ws.last_seen = now
        self._emit("worker-connect", worker=worker_id, slots=ws.slots)
        self.log(f"fleet: worker {worker_id} connected ({ws.slots} slots)")
        self._wake_up()
        try:
            while True:
                frame = await transport.recv()
                if frame is None:
                    break
                ws.last_seen = self._now()
                ftype = frame.get("type")
                if ftype == protocol.HEARTBEAT:
                    self._on_heartbeat(ws, frame)
                elif ftype == protocol.RESULT:
                    self._on_result(ws, frame)
                elif ftype == protocol.REVOKED:
                    self._on_revoked(ws, frame)
        except (WireError, ConnectionError, OSError):
            pass
        finally:
            if ws.transport is transport:
                self._worker_lost(ws, "connection closed")
            transport.close()

    def _now(self) -> float:
        assert self._loop is not None
        return self._loop.time()

    def _wake_up(self) -> None:
        if self._wake is not None:
            self._wake.set()

    def _worker_lost(self, ws: _WorkerState, reason: str) -> None:
        if self._workers.get(ws.worker_id) is not ws:
            return  # already replaced by a reconnect
        del self._workers[ws.worker_id]
        self.stats["dead_workers"] += 1
        self._emit("worker-lost", worker=ws.worker_id, reason=reason)
        self.log(f"fleet: worker {ws.worker_id} lost ({reason})")
        camp = self._camp
        if camp is not None:
            for lease_id in list(ws.held):
                lease = camp.leases.get(lease_id)
                if lease is not None:
                    self._expire_lease(camp, lease, f"worker lost: {reason}")
        ws.held.clear()
        self._wake_up()

    # -- lease bookkeeping -------------------------------------------------

    def _expire_lease(self, camp: _Campaign, lease: _Lease, reason: str) -> None:
        camp.leases.pop(lease.lease_id, None)
        ws = self._workers.get(lease.worker_id)
        if ws is not None:
            ws.held.discard(lease.lease_id)
        if lease.index in camp.outcomes:
            return  # already finalized through another lease
        self.stats["expired_leases"] += 1
        self._emit(
            "lease-expired",
            lease=lease.lease_id,
            index=lease.index,
            worker=lease.worker_id,
            reason=reason,
        )
        if camp.ledger.ride(lease.index):
            self.stats["reassigned"] += 1
            camp.pending.appendleft(lease.index)
            return
        # A pool break for a cell never seen running: past its free rides,
        # a cell that keeps taking workers (or links) down runs out of budget.
        held = self._now() - lease.granted
        kind = ERROR_DEADLINE if held > self.lease_seconds else ERROR_CRASH
        error = f"FleetError: lease expired ({reason})"
        self._charge(camp, lease.index, error, kind, held)

    def _charge(
        self, camp: _Campaign, index: int, error: str, kind: str, wall: float
    ) -> None:
        """Charge a failed attempt: re-lease after the backoff, or finalize."""
        delay = camp.ledger.charge(index, error, kind)
        if delay is None:
            outcome = camp.ledger.failed(index, wall, kind)
            self._finalize(
                camp, index, journal_entry(camp.kind, camp.cells[index], outcome)
            )
            return
        self.stats["reassigned"] += 1
        self._loop.call_later(delay, self._requeue, camp, index)

    def _requeue(self, camp: _Campaign, index: int) -> None:
        camp.pending.append(index)
        self._wake_up()

    def _finalize(self, camp: _Campaign, index: int, entry: dict) -> None:
        if index in camp.outcomes:
            return
        camp.outcomes[index] = entry
        if not entry.get("ok"):
            self.stats["finalized_failures"] += 1
        if camp.on_entry is not None:
            try:
                camp.on_entry(index, entry)
            except Exception:  # caller's journal/progress must not kill the loop
                pass
        self._wake_up()

    def _on_heartbeat(self, ws: _WorkerState, frame: dict) -> None:
        ws.reported_held = set(
            lid for lid in frame.get("held", []) if isinstance(lid, str)
        )
        ws.report_time = ws.last_seen
        ws.reported_running = int(frame.get("running", 0))
        interval = frame.get("interval")
        if isinstance(interval, (int, float)) and interval > 0:
            ws.interval = float(interval)

    def _on_result(self, ws: _WorkerState, frame: dict) -> None:
        """Finalize (or charge) a RESULT for a lease this campaign granted.

        The lease names the cell: a RESULT whose lease the live campaign
        never granted, or whose key is not that cell's journal key (a
        worker that finished another campaign's cell), is dropped and
        counted as ``foreign_results``.
        """
        camp = self._camp
        lease_id, key, entry = frame.get("lease_id"), frame.get("key"), frame.get("entry")
        index = (
            camp.granted.get(lease_id)
            if camp is not None and isinstance(lease_id, str)
            else None
        )
        if (
            index is None
            or not isinstance(entry, dict)
            or key != camp.kind.journal_key(camp.cells[index])
        ):
            self.stats["foreign_results"] += 1
            self._emit("foreign-result", lease=lease_id, key=key, worker=ws.worker_id)
            return
        lease = camp.leases.pop(lease_id, None)
        if lease is not None:
            owner = self._workers.get(lease.worker_id)
            if owner is not None:
                owner.held.discard(lease.lease_id)
        # A failure is charged once, by the lease that ran it: a failed
        # RESULT whose lease is no longer live (a duplicated frame, or a
        # late failure from an expired lease that was already charged or
        # re-leased) is a duplicate, like a second result for a cell.
        if index in camp.outcomes or (lease is None and not entry.get("ok")):
            self.stats["duplicate_results"] += 1
            self._emit("duplicate-result", index=index, worker=ws.worker_id)
            return
        self.stats["results"] += 1
        self._emit(
            "result",
            index=index,
            worker=ws.worker_id,
            ok=bool(entry.get("ok")),
            cache_hit=bool(entry.get("cache_hit")),
        )
        kind = entry.get("error_kind")
        if not entry.get("ok") and kind != ERROR_ABORTED:
            error, wall = entry.get("error") or "", entry.get("wall_seconds", 0.0)
            self._charge(camp, index, error, kind or ERROR_DETERMINISTIC, wall)
            return
        if entry.get("ok"):
            entry = dict(entry, attempts=camp.ledger.states[index].attempts + 1)
        self._finalize(camp, index, entry)

    def _on_revoked(self, ws: _WorkerState, frame: dict) -> None:
        camp = self._camp
        ws.steal_inflight = False
        if camp is None:
            return
        for item in frame.get("leases", []):
            lease_id = item.get("lease_id")
            lease = camp.leases.pop(lease_id, None) if lease_id else None
            if lease is None:
                continue
            ws.held.discard(lease.lease_id)
            if lease.index not in camp.outcomes:
                camp.pending.append(lease.index)
                self.stats["stolen"] += 1
                self._emit(
                    "lease-stolen",
                    lease=lease.lease_id,
                    index=lease.index,
                    worker=ws.worker_id,
                )
        self._wake_up()

    # -- the campaign loop -------------------------------------------------

    def map_cells(
        self,
        cells: Sequence[Any],
        kind: CampaignKind,
        fresh: bool = False,
        run_id: Optional[str] = None,
        journal_dir: Optional[Path] = None,
        on_entry: Optional[OnEntryFn] = None,
        should_abort: Optional[Callable[[], bool]] = None,
        policy: SupervisorPolicy = SupervisorPolicy(),
        stats: Optional[SupervisorStats] = None,
    ) -> Tuple[Dict[int, dict], List[int]]:
        """Fan one ``kind``'s ``cells`` out to the fleet (thread-safe).

        Workers rebuild each cell from the kind's recipe and run the
        task ``run_campaign`` runs locally (``fresh`` as there), so every
        campaign kind rides the same leases, retry ledger and shards.
        Blocks until every cell is finalized or given up on; returns
        ``(outcomes, leftovers)``. ``on_entry(index, entry)`` fires on
        the coordinator thread as each result lands — the sweep layer
        journals and reports progress from it. Failures and lost leases
        are charged under ``policy`` and ``stats``, as on the local pool.
        ``wait_seconds`` bounds both the initial wait for ``min_workers``
        connections and the mid-campaign grace before declaring a
        workerless fleet dead and returning the remainder as leftovers.
        """
        if self._loop is None:
            raise FleetError("coordinator is not started")
        # The campaign id is unique per call — never the bare run id. A
        # resumed run reuses its run id with a re-indexed pending list,
        # and workers key index-addressed memory on the campaign id, so
        # sharing an id across calls would replay the wrong cells.
        future = asyncio.run_coroutine_threadsafe(
            self._campaign(
                _Campaign(
                    campaign_id=(
                        f"{run_id or 'campaign'}"
                        f"@{os.getpid()}.{time.time_ns()}"
                    ),
                    kind=kind,
                    cells=cells,
                    fresh=fresh,
                    run_id=run_id,
                    journal_dir=str(journal_dir) if journal_dir else None,
                    on_entry=on_entry,
                    policy=policy,
                    stats=stats or SupervisorStats(),
                ),
                should_abort=should_abort,
            ),
            self._loop,
        )
        return future.result()

    async def _sleep_or_wake(self, timeout: float) -> None:
        assert self._wake is not None
        try:
            await asyncio.wait_for(self._wake.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        self._wake.clear()

    async def _campaign(
        self,
        camp: _Campaign,
        should_abort: Optional[Callable[[], bool]],
    ) -> Tuple[Dict[int, dict], List[int]]:
        assert self._campaign_lock is not None
        async with self._campaign_lock:
            self.stats["campaigns"] += 1
            self._camp = camp
            self._emit(
                "campaign-start",
                campaign=camp.id,
                cells=len(camp.cells),
                workers=len(self._workers),
            )
            try:
                aborted = lambda: should_abort is not None and should_abort()
                deadline = self._now() + self.wait_seconds
                while self._now() < deadline and not aborted():
                    # Reap half-open connections first so a dead peer
                    # never satisfies min_workers.
                    self._reap_dead_workers()
                    if len(self._workers) >= self.min_workers:
                        break
                    await self._sleep_or_wake(0.05)
                tick = max(0.05, self.heartbeat_seconds / 2.0)
                workerless_since: Optional[float] = None
                while not camp.done and not aborted():
                    now = self._now()
                    if self._workers:
                        workerless_since = None
                    else:
                        if workerless_since is None:
                            workerless_since = now
                        elif now - workerless_since > self.wait_seconds:
                            break  # degrade: hand the rest back to the caller
                    self._check_expiries(camp)
                    await self._assign(camp)
                    await self._request_steals(camp)
                    await self._sleep_or_wake(tick)
            finally:
                self._camp = None
                self._emit(
                    "campaign-end",
                    campaign=camp.id,
                    completed=len(camp.outcomes),
                    leftover=len(camp.cells) - len(camp.outcomes),
                    stats=self.stats_snapshot(),
                )
        leftovers = [
            index for index in range(len(camp.cells)) if index not in camp.outcomes
        ]
        return camp.outcomes, leftovers

    def _reap_dead_workers(self) -> None:
        """Drop workers silent for three of their own announced intervals.

        A worker heartbeats from the moment it connects, at
        :data:`repro.fleet.protocol.DEFAULT_HEARTBEAT_SECONDS` until a
        campaign's ASSIGN names another cadence, and every heartbeat
        says which cadence it keeps; one not yet heard from is held to
        the default. So a half-open connection is reaped too instead of
        counting toward ``min_workers`` forever, and a worker is never
        held to a cadence it has not heard of yet.
        """
        now = self._now()
        for ws in list(self._workers.values()):
            if now - ws.last_seen > 3.0 * ws.interval:
                ws.transport.close()
                self._worker_lost(ws, "missed heartbeats")

    def _check_expiries(self, camp: _Campaign) -> None:
        self._reap_dead_workers()
        now = self._now()
        reconcile_after = 2.0 * self.heartbeat_seconds
        for lease in list(camp.leases.values()):
            ws = self._workers.get(lease.worker_id)
            if ws is None:
                self._expire_lease(camp, lease, "worker gone")
                continue
            if (
                ws.reported_held is not None
                and ws.report_time - lease.granted > reconcile_after
                and lease.lease_id not in ws.reported_held
            ):
                # The worker has heartbeated well after this grant and
                # does not hold it: the ASSIGN (or its RESULT) was lost.
                self._expire_lease(camp, lease, "not reported held")
            elif now - lease.granted > self.lease_seconds:
                self._expire_lease(camp, lease, "lease deadline")

    async def _assign(self, camp: _Campaign) -> None:
        if not camp.pending:
            return
        now = self._now()
        # Round-robin over workers with spare queue depth (2× slots:
        # enough to keep pipelines full, shallow enough that stealing
        # rarely needs to move much).
        context = protocol.campaign(
            camp.id,
            camp.kind.name,
            camp.fresh,
            self.heartbeat_seconds,
            run_id=camp.run_id,
            journal_dir=camp.journal_dir,
        )
        for ws in list(self._workers.values()):
            if not camp.pending:
                return
            capacity = ws.slots * 2 - len(ws.held)
            grants = []
            while camp.pending and capacity > 0:
                index = camp.pending.popleft()
                if index in camp.outcomes:
                    continue
                camp.grant_counter += 1
                lease_id = f"{camp.id}:{index}:{camp.grant_counter}"
                camp.leases[lease_id] = _Lease(lease_id, index, ws.worker_id, now)
                camp.granted[lease_id] = index
                ws.held.add(lease_id)
                recipe = camp.kind.recipe_of(camp.cells[index])
                grants.append({"lease_id": lease_id, "index": index, "cell": recipe})
                capacity -= 1
            if not grants:
                continue
            self.stats["assigned"] += len(grants)
            for grant in grants:
                self._emit(
                    "lease-granted",
                    lease=grant["lease_id"],
                    index=grant["index"],
                    worker=ws.worker_id,
                )
            try:
                await ws.transport.send(protocol.assign(context, grants))
            except (WireError, ConnectionError, OSError):
                self._worker_lost(ws, "assign failed")

    async def _request_steals(self, camp: _Campaign) -> None:
        if camp.pending or camp.done:
            return
        idle = [
            ws
            for ws in self._workers.values()
            if not ws.held and not ws.steal_inflight
        ]
        if not idle:
            return
        # Steal from the most loaded worker with visibly queued leases
        # (held minus running, by its own last report).
        donors = sorted(
            (
                ws
                for ws in self._workers.values()
                if not ws.steal_inflight
                and ws.reported_held is not None
                and len(ws.held) - ws.reported_running > 1
            ),
            key=lambda ws: len(ws.held),
            reverse=True,
        )
        for donor in donors[: len(idle)]:
            queued = len(donor.held) - donor.reported_running
            count = max(1, queued // 2)
            donor.steal_inflight = True
            self._emit("steal-request", worker=donor.worker_id, count=count)
            try:
                await donor.transport.send(protocol.revoke(count=count))
            except (WireError, ConnectionError, OSError):
                self._worker_lost(donor, "revoke failed")
