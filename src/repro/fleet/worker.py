"""``repro.fleet.worker`` — one remote host's share of a campaign.

A :class:`FleetWorker` dials the coordinator, announces itself
(HELLO), and executes the cells it is leased (ASSIGN) on this host's
shared pool (:data:`repro.supervisor.shared_pool`, sized ``slots``).
Every ASSIGN names its campaign — kind, ``fresh``, run id, journal dir,
heartbeat cadence — and each lease's recipe, so there is nothing to
install ahead of a lease. The kind (:func:`repro.sweep.campaign_kind`)
rebuilds the cell from its recipe (``cell_of``) and makes the *same*
task ``run_campaign`` submits (``kind.cell_fn`` on ``kind.task(cell,
fresh)``, behind the :func:`repro.sweep._pin_worker` prologue), so a
sweep, chaos or recovery cell computes identically whether it ran
locally or across the fleet, and the pool's children exit when this
worker process dies.

Robustness posture:

* the first ASSIGN of a new campaign id switches the worker to that
  campaign: the old shard is closed, the old campaign's leases and
  finished-index memory are dropped, the new shard is opened and the
  new cadence takes effect with an immediate heartbeat. An ASSIGN of
  the current campaign (after a reconnect, say) keeps all of it;
* every completed cell is appended to the worker's private journal
  shard *before* the RESULT frame is sent — a dead coordinator (or a
  dropped frame) loses nothing, the shard merge recovers it. A cell
  that finishes after the worker moved to another campaign is
  dropped: its shard is closed, and the coordinator re-leases the cell
  if its campaign still wants it;
* *successfully* finished indexes are remembered; a duplicate ASSIGN
  (the coordinator reassigning after a lost RESULT) is answered by
  re-sending the stored entry, never by recomputing. Failures are
  deliberately not memoized — a fresh lease for a failed index is a
  retry and re-executes the cell;
* the connection is disposable: on any error the worker reconnects
  with a fresh HELLO; :meth:`FleetWorker.stop` closes the live one so
  :meth:`FleetWorker.run` returns at once;
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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._transport: Optional[FrameTransport] = None
        # the campaign the latest ASSIGN named (survives reconnects)
        self._campaign_id: Optional[str] = None
        self._kind: Optional[CampaignKind] = None
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
        """Stop serving, from any thread: the live connection is closed
        on the worker's own loop, so :meth:`run` returns at once."""
        self._stop = True
        loop, transport = self._loop, self._transport
        if loop is not None and transport is not None:
            try:
                loop.call_soon_threadsafe(transport.close)
            except RuntimeError:
                pass  # the loop already finished

    async def run_async(self) -> None:
        """Connect-and-serve until told to SHUTDOWN (or :meth:`stop`)."""
        self._loop = asyncio.get_running_loop()
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
            self._loop = None
            self._close_shard()

    def _close_shard(self) -> None:
        if self._shard is not None:
            self._shard.close()
            self._shard = None

    # -- one connection ----------------------------------------------------

    async def _session(self, transport: FrameTransport) -> None:
        # Heartbeat from the first moment of the session — not gated on
        # an ASSIGN — so the coordinator can distinguish a live idle
        # worker (between campaigns) from a half-open connection and
        # reap the latter.
        self._hb_wake = asyncio.Event()
        heartbeat_task = asyncio.ensure_future(self._heartbeat_loop(transport))
        try:
            while not self._stop:
                frame = await transport.recv()
                if frame is None:
                    return
                ftype = frame.get("type")
                if ftype == protocol.ASSIGN:
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
        # inside three announced intervals even in the very first one.
        # The wait is interruptible (`_hb_wake`) so joining a campaign
        # with a faster cadence announces it at once instead of after
        # one stale (possibly 1 s default) sleep.
        try:
            while True:
                await transport.send(
                    protocol.heartbeat(
                        self.worker_id,
                        held=list(self._leases),
                        running=len(self._running),
                        interval=self._heartbeat_seconds,
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

    # -- leases ------------------------------------------------------------

    def _join(self, context: dict) -> None:
        """Serve the campaign ``context`` names, forgetting the last one."""
        kind = campaign_kind(str(context.get("kind")))
        self._close_shard()
        self._campaign_id, self._kind = context.get("id"), kind
        self._fresh = bool(context.get("fresh", False))
        self._leases, self._running, self._done = {}, set(), {}
        self._sem = asyncio.Semaphore(self.slots)
        run_id, journal_directory = context.get("run_id"), context.get("journal_dir")
        if run_id and journal_directory:
            self._shard = JournalShard.open(
                str(run_id), self.worker_id, Path(str(journal_directory))
            )
        self._heartbeat_seconds = float(
            context.get("heartbeat_seconds", protocol.DEFAULT_HEARTBEAT_SECONDS)
        )
        if self._hb_wake is not None:
            self._hb_wake.set()  # announce the new cadence now
        self.log(
            f"{kind.name} campaign {self._campaign_id}: {self.slots} slot(s), "
            "shard=" + (str(self._shard.path) if self._shard else "off")
        )

    async def _on_assign(self, frame: dict) -> None:
        context = frame.get("campaign")
        if not isinstance(context, dict) or not isinstance(context.get("id"), str):
            return
        if context["id"] != self._campaign_id:
            self._join(context)
        assert self._kind is not None
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
                await self._send_result(lease_id, key, entry, seq)
                continue
            try:
                cell = self._kind.cell_of(lease.get("cell"))
            except (KeyError, TypeError, ValueError):
                continue  # never held, so the coordinator expires the lease
            self._leases[lease_id] = index
            asyncio.ensure_future(self._execute(lease_id, index, cell))

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

    async def _compute(self, cell: Any):
        """Run one cell of the current campaign on the shared pool;
        ``None`` means it never ran."""
        kind = self._kind
        assert kind is not None
        fn = _pin(kind.cell_fn)  # to this host's cache dir, like a local campaign
        task = kind.task(cell, self._fresh)
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

    async def _execute(self, lease_id: str, index: int, cell: Any) -> None:
        assert self._sem is not None
        async with self._sem:
            if lease_id not in self._leases:
                return  # revoked while queued, or its campaign is gone
            campaign_id = self._campaign_id
            self._running.add(lease_id)
            try:
                outcome = await self._compute(cell)
            finally:
                self._running.discard(lease_id)
                self._leases.pop(lease_id, None)
        if outcome is None or campaign_id != self._campaign_id:
            return  # never ran, or the worker moved to another campaign
        assert self._kind is not None
        value, error, wall, error_kind = outcome
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
        await self._send_result(lease_id, key, entry, seq)

    async def _send_result(
        self, lease_id: str, key: str, entry: dict, seq: Optional[int]
    ) -> None:
        transport = self._transport
        if transport is None:
            return  # between connections; the shard (or a re-ASSIGN) covers it
        try:
            await transport.send(protocol.result(lease_id, key, entry, seq))
        except (WireError, ConnectionError, OSError):
            pass
