"""``repro.fleet.worker`` — one remote host's share of a campaign.

A :class:`FleetWorker` dials the coordinator, announces itself
(HELLO), receives the campaign context (WELCOME: a campaign kind's
name and its cells' recipes), and then executes assigned cells on this
host's shared pool (:data:`repro.supervisor.shared_pool`, sized
``slots``). The kind (:func:`repro.sweep.campaign_kind`) rebuilds each
cell from its recipe (``cell_of``) and makes the *same* task
``run_campaign`` submits (``kind.cell_fn`` on ``kind.task(cell,
fresh)``, behind the :func:`repro.sweep._pin_worker` prologue), so a
sweep, chaos or recovery cell computes identically whether it ran
locally or across the fleet, and the pool's children exit when this
worker process dies.

Robustness posture:

* every completed cell is appended to the worker's private journal
  shard *before* the RESULT frame is sent — a dead coordinator (or a
  dropped frame) loses nothing, the shard merge recovers it;
* *successfully* finished indexes are remembered; a duplicate ASSIGN
  (the coordinator reassigning after a lost RESULT) is answered by
  re-sending the stored entry, never by recomputing. Failures are
  deliberately not memoized — a fresh lease for a failed index is a
  retry and re-executes the cell;
* the connection is disposable: on any error the worker reconnects
  with a fresh HELLO and the coordinator re-WELCOMEs it (same
  campaign id, kind *and* cell list → shard and finished-index memory
  are kept; anything else reinstalls from scratch, so a stale campaign
  can never replay the wrong cell for an index);
* each lease runs its cell once; the coordinator charges a failure to
  the campaign's :class:`repro.supervisor.RetryLedger` and decides
  whether the cell runs again. A died pool process (the cell SIGKILLed
  the worker, OOM, ...) is contained — the pool is replaced once per
  break — and, like any other pool failure (an unpicklable call),
  reported as a crash in the supervisor's words. A pool another
  campaign on this host killed on purpose (a deadline or an abort)
  runs the cell again instead.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import socket
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple

# campaign_kind looks the chaos and recovery kinds up lazily; import
# them here, before any thread runs, because a pool worker forked while
# another thread holds a module's import lock hangs on that import.
from repro import chaos, recovery  # noqa: F401
from repro.fleet import protocol
from repro.fleet.transport import FrameTransport
from repro.journal import JournalShard
from repro.service.wire import WireError
from repro.supervisor import (
    ERROR_CRASH, CampaignKind, TaskOutcome, pool_error, shared_pool, traced_call,
)
from repro.sweep import _pin, campaign_kind, journal_entry

__all__ = ["FleetWorker", "sanitize_worker_id"]


def sanitize_worker_id(worker_id: str) -> str:
    """A filesystem-safe worker id (shard files embed it)."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", worker_id) or "worker"


class FleetWorker:
    """One fleet worker process: connect, lease cells, compute, report."""

    def __init__(
        self,
        host: str,
        port: int,
        worker_id: Optional[str] = None,
        slots: Optional[int] = None,
        reconnect_seconds: float = 0.5,
        log=None,
    ) -> None:
        self.host = host
        self.port = port
        self.worker_id = sanitize_worker_id(
            worker_id or f"{socket.gethostname()}-{os.getpid()}"
        )
        self.slots = max(1, slots if slots is not None else (os.cpu_count() or 1))
        self.reconnect_seconds = reconnect_seconds
        self.log = log or (lambda message: None)
        self._stop = False
        self._transport: Optional[FrameTransport] = None
        # campaign state (survives reconnects within one campaign)
        self._campaign_id: Optional[str] = None
        self._campaign_digest: Optional[str] = None
        self._kind: Optional[CampaignKind] = None
        self._cells: Tuple[Any, ...] = ()
        self._fresh = False
        self._heartbeat_seconds = protocol.DEFAULT_HEARTBEAT_SECONDS
        self._shard: Optional[JournalShard] = None
        self._leases: Dict[str, int] = {}  # lease_id -> cell index
        self._running: Set[str] = set()
        self._done: Dict[int, Tuple[str, dict, Optional[int]]] = {}
        self._sem: Optional[asyncio.Semaphore] = None
        self._hb_wake: Optional[asyncio.Event] = None
        self.cells_executed = 0

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> int:
        """Blocking entry point (the CLI ``worker`` subcommand)."""
        asyncio.run(self.run_async())
        return 0

    def stop(self) -> None:
        self._stop = True

    async def run_async(self) -> None:
        """Connect-and-serve until told to SHUTDOWN (or :meth:`stop`)."""
        try:
            while not self._stop:
                try:
                    reader, writer = await asyncio.open_connection(
                        self.host, self.port
                    )
                except OSError:
                    await asyncio.sleep(self.reconnect_seconds)
                    continue
                transport = FrameTransport(reader, writer)
                self._transport = transport
                try:
                    await transport.send(
                        protocol.hello(self.worker_id, self.slots)
                    )
                    await self._session(transport)
                except (WireError, ConnectionError, OSError):
                    pass  # disposable connection: reconnect below
                finally:
                    if self._transport is transport:
                        self._transport = None
                    transport.close()
                if not self._stop:
                    await asyncio.sleep(self.reconnect_seconds)
        finally:
            self._teardown_campaign()

    def _teardown_campaign(self) -> None:
        if self._shard is not None:
            self._shard.close()
            self._shard = None

    # -- one connection ----------------------------------------------------

    async def _session(self, transport: FrameTransport) -> None:
        # Heartbeat from the first moment of the session — not gated on
        # a WELCOME — so the coordinator can distinguish a live idle
        # worker (between campaigns) from a half-open connection and
        # reap the latter.
        self._hb_wake = asyncio.Event()
        heartbeat_task = asyncio.ensure_future(self._heartbeat_loop(transport))
        try:
            while True:
                frame = await transport.recv()
                if frame is None:
                    return
                ftype = frame.get("type")
                if ftype == protocol.WELCOME:
                    await self._install(frame)
                elif ftype == protocol.ASSIGN:
                    await self._on_assign(frame)
                elif ftype == protocol.REVOKE:
                    await self._on_revoke(transport, frame)
                elif ftype == protocol.SHUTDOWN:
                    self.log(f"shutdown: {frame.get('reason', '')}")
                    self._stop = True
                    return
        finally:
            heartbeat_task.cancel()

    async def _heartbeat_loop(self, transport: FrameTransport) -> None:
        # Send-first, then wait: the coordinator must hear from us well
        # inside its 3×heartbeat death deadline even in the very first
        # interval. The wait is interruptible (`_hb_wake`) so a WELCOME
        # that installs a faster campaign cadence — or a campaign id we
        # need to acknowledge — takes effect immediately instead of
        # after one stale (possibly 1 s default) sleep.
        try:
            while True:
                await transport.send(
                    protocol.heartbeat(
                        self.worker_id,
                        held=list(self._leases),
                        running=len(self._running),
                        campaign_id=self._campaign_id,
                    )
                )
                assert self._hb_wake is not None
                try:
                    await asyncio.wait_for(
                        self._hb_wake.wait(), self._heartbeat_seconds
                    )
                except asyncio.TimeoutError:
                    pass
                self._hb_wake.clear()
        except (asyncio.CancelledError, WireError, ConnectionError, OSError):
            return

    # -- campaign install --------------------------------------------------

    @staticmethod
    def _campaign_fingerprint(frame: dict) -> str:
        """Content hash of everything that defines cell-index meaning."""
        payload = json.dumps(
            [
                frame.get("kind"),
                frame.get("cells", []),
                frame.get("fresh", False),
                frame.get("run_id"),
                frame.get("journal_dir"),
            ],
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    async def _install(self, frame: dict) -> None:
        campaign_id = frame.get("campaign_id")
        digest = self._campaign_fingerprint(frame)
        self._heartbeat_seconds = float(
            frame.get("heartbeat_seconds", protocol.DEFAULT_HEARTBEAT_SECONDS)
        )
        if self._hb_wake is not None:
            # Re-announce on the new cadence right away; the coordinator
            # is waiting to see this campaign id in a heartbeat.
            self._hb_wake.set()
        if campaign_id == self._campaign_id and digest == self._campaign_digest:
            return  # re-WELCOME after a reconnect: keep shard/memory
        # A matching id with a *different* cell list (a resumed run
        # reusing its id with a re-indexed pending set) must never reuse
        # index-keyed memory — lease indexes would point at the wrong
        # cells and the coordinator would journal wrong-cell entries.
        self._teardown_campaign()
        self._campaign_id = campaign_id
        self._campaign_digest = digest
        self._kind = kind = campaign_kind(str(frame.get("kind")))
        self._cells = tuple(kind.cell_of(d) for d in frame.get("cells", []))
        self._fresh = bool(frame.get("fresh", False))
        self._leases = {}
        self._running = set()
        self._done = {}
        self._sem = asyncio.Semaphore(self.slots)
        run_id = frame.get("run_id")
        journal_directory = frame.get("journal_dir")
        if run_id and journal_directory:
            self._shard = JournalShard.open(
                str(run_id), self.worker_id, Path(str(journal_directory))
            )
        self.log(
            f"{kind.name} campaign {campaign_id}: {len(self._cells)} cells, "
            f"{self.slots} slot(s), shard="
            + (str(self._shard.path) if self._shard else "off")
        )

    # -- leases ------------------------------------------------------------

    async def _on_assign(self, frame: dict) -> None:
        for lease in frame.get("leases", []):
            lease_id = lease.get("lease_id")
            index = lease.get("index")
            if not isinstance(lease_id, str) or not isinstance(index, int):
                continue
            if lease_id in self._leases:
                continue  # duplicated ASSIGN frame
            if index in self._done:
                # The coordinator lost our RESULT and reassigned; answer
                # from memory instead of recomputing.
                key, entry, seq = self._done[index]
                await self._send_result(lease_id, index, key, entry, seq)
                continue
            if not (0 <= index < len(self._cells)):
                continue
            self._leases[lease_id] = index
            asyncio.ensure_future(self._execute(lease_id, index))

    async def _on_revoke(self, transport: FrameTransport, frame: dict) -> None:
        """Release queued (never started) leases back to the coordinator."""
        wanted = list(frame.get("lease_ids", []))
        count = int(frame.get("count", 0))
        released = []
        for lease_id in list(self._leases):
            if lease_id in self._running:
                continue  # running cells are not preemptible
            if wanted and lease_id not in wanted:
                continue
            if not wanted and count <= len(released):
                break
            index = self._leases.pop(lease_id)
            released.append({"lease_id": lease_id, "index": index})
        await transport.send(protocol.revoked(released))

    async def _compute(self, index: int):
        """Run one cell on the shared pool; ``None`` means it never ran."""
        kind = self._kind
        assert kind is not None
        fn = _pin(kind.cell_fn)  # to this host's cache dir, like a local campaign
        task = kind.task(self._cells[index], self._fresh)
        while True:
            try:
                future, pool, _ = shared_pool.submit(self.slots, traced_call, fn, task)
            except RuntimeError:
                return None  # the interpreter is shutting down
            try:
                return await asyncio.wrap_future(future)
            except BrokenProcessPool as exc:
                if shared_pool.killed(pool):
                    continue  # killed on purpose by another campaign: rerun
                # The cell killed its process (or OOM did): contain, report.
                shared_pool.replace(pool)
                return None, pool_error(exc), 0.0, ERROR_CRASH
            except Exception as exc:  # pool plumbing failure, e.g. pickling
                return None, pool_error(exc), 0.0, ERROR_CRASH

    async def _execute(self, lease_id: str, index: int) -> None:
        assert self._sem is not None
        async with self._sem:
            if lease_id not in self._leases:
                return  # revoked while queued
            self._running.add(lease_id)
            try:
                outcome = await self._compute(index)
            finally:
                self._running.discard(lease_id)
                self._leases.pop(lease_id, None)
        if outcome is None:
            return
        assert self._kind is not None
        value, error, wall, error_kind = outcome
        cell = self._cells[index]
        out = TaskOutcome(value, error, wall, 1, error_kind)
        entry = journal_entry(self._kind, cell, out)
        entry["worker"] = self.worker_id
        key = self._kind.journal_key(cell)
        seq = None
        if self._shard is not None:
            # Shard first, frame second: once this append lands, the
            # cell survives any combination of lost frames and dead
            # coordinators.
            seq = self._shard.record(key, entry)
        if entry["ok"]:
            # Only successes are answered from memory on a duplicate
            # ASSIGN; a reassigned *failed* index is the coordinator
            # retrying and must actually re-execute here.
            self._done[index] = (key, entry, seq)
        self.cells_executed += 1
        await self._send_result(lease_id, index, key, entry, seq)

    async def _send_result(
        self,
        lease_id: str,
        index: int,
        key: str,
        entry: dict,
        seq: Optional[int],
    ) -> None:
        transport = self._transport
        if transport is None:
            return  # between connections; the shard (or a re-ASSIGN) covers it
        try:
            await transport.send(protocol.result(lease_id, index, key, entry, seq))
        except (WireError, ConnectionError, OSError):
            pass
