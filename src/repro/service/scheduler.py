"""``repro.service.scheduler`` — fair-share dispatch onto the worker pool.

The scheduler owns the *run* half of a job's life: it picks which
queued job starts next, executes it on a bounded thread pool (each job
in turn drives the supervised process pool through
:func:`repro.sweep.run_campaign`), enforces per-job deadlines,
and services cancellation — all cooperatively, through the
``should_abort`` hook PR'd into :mod:`repro.supervisor`, so an aborted
job's completed cells are already journaled and nothing is lost.

Scheduling discipline (admission already bounded the queues):

* **Fair share first** — among tenants with runnable jobs, the tenant
  with the fewest *running* jobs wins; a tenant at its ``max_running``
  quota is skipped entirely. One tenant saturating its quota therefore
  never delays another tenant's first job — the acceptance scenario.
* **Priority second** — within a tenant, higher ``priority`` runs
  earlier.
* **FIFO last** — ties break by submission sequence, so equal-priority
  jobs are served in arrival order.

Failure semantics mirror the sweep layer's graceful degradation: a job
whose campaign had failures lands in ``failed`` — unless it was
submitted with ``allow_partial``, in which case the surviving cells are
kept and the job lands in the ``partial`` state with an explicit gap
report, the service-level twin of ``--allow-partial``.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

# The job layers load here, before the scheduler starts a thread: a
# pool worker forked while another thread holds a module's import lock
# hangs on its first import of that module.
from repro import chaos, recovery, sweep
from repro.errors import JobCancelled, JournalLockedError, SweepError
from repro.faults import FaultKind
from repro.journal import RunJournal
from repro.service.admission import TenantQuota
from repro.service.jobs import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_PARTIAL,
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_SUBMITTED,
    Job,
    JobStore,
)

__all__ = ["FairShareScheduler", "execute_job"]

#: How many in-memory events one job retains for late stream attachers.
MAX_EVENTS_PER_JOB = 1000


# ---------------------------------------------------------------------------
# job execution (runs inside a scheduler worker thread)
# ---------------------------------------------------------------------------


def _report_payload(kind, report) -> Dict[str, Any]:
    """The job result fields every campaign kind reports, cell by cell."""
    return {
        "kind": kind.name,
        "cells": [
            {
                "label": out.label,
                "key": kind.journal_key(out.cell),
                "ok": out.ok,
                "error": out.error,
                "error_kind": out.error_kind,
                "cache_hit": out.cache_hit,
                "resumed": out.resumed,
                "attempts": out.attempts,
                "wall_seconds": round(out.wall_seconds, 6),
                "result": None if out.result is None else kind.to_dict(out.result),
            }
            for out in report.outcomes
        ],
        "completion_rate": report.completion_rate,
        "resumed_cells": report.resumed_cells,
        "wall_seconds": round(report.wall_seconds, 6),
        "mode": report.mode,
        "workers": report.workers,
        "supervisor": report.stats.as_dict(),
        "fleet": report.fleet,
        "failures": report.failures(),
    }


def _execute_sweep(
    job: Job,
    journal: RunJournal,
    should_abort: Callable[[], bool],
    progress: Optional[Callable[[int, int, str, Optional[str]], None]],
    fleet=None,
) -> Dict[str, Any]:
    params = job.spec.params
    if params.get("cells"):
        cells = sweep.dedup_cells([sweep.Cell.from_dict(c) for c in params["cells"]])
    else:
        _, cells = sweep.grid_union(
            params.get("grids") or ["fig4"],
            threading=params.get("threading"),
            workloads=params.get("workloads"),
            seed=int(params.get("seed", 1234)),
            ops_scale=float(params.get("ops_scale", 1.0)),
        )
    report = sweep.run_sweep(
        cells,
        workers=job.spec.workers,
        journal=journal,
        progress=progress,
        should_abort=should_abort,
        fleet=fleet,
    )
    payload = _report_payload(sweep.SWEEP_CAMPAIGN, report)
    payload.update(cache_hit_rate=report.cache_hit_rate)
    return payload


def _execute_campaign(
    job: Job,
    journal: RunJournal,
    should_abort: Callable[[], bool],
    progress: Optional[Callable[[int, int, str, Optional[str]], None]],
    fleet=None,
) -> Dict[str, Any]:
    """Chaos and recovery jobs: the kind's grid through ``run_campaign``.

    Like a sweep job, the payload lists every cell and reports failed
    cells instead of raising, so ``allow_partial`` keeps the survivors,
    and the cells run on the ``fleet`` when the server has one.
    """
    params = job.spec.params
    seed = int(params.get("seed", 1234))
    grid_args = dict(
        workloads=params.get("workloads"),
        seed=seed,
        ops_scale=float(params.get("ops_scale", 1.0)),
        quick=bool(params.get("quick", False)),
    )
    if job.spec.kind == "chaos":
        kinds = [FaultKind(name) for name in params.get("fault_types") or []]
        cells = chaos.chaos_grid(kinds=kinds or None, **grid_args)
        verdicts = chaos.ChaosReport(seed)
    else:
        cells = recovery.recovery_grid(scenarios=params.get("scenarios"), **grid_args)
        verdicts = recovery.RecoveryReport(seed)
    kind = sweep.campaign_kind(job.spec.kind)
    report = sweep.run_campaign(
        cells,
        kind,
        workers=job.spec.workers,
        journal=journal,
        progress=progress,
        should_abort=should_abort,
        fleet=fleet,
    )
    verdicts.runs = [out.result for out in report.outcomes if out.ok]
    payload = _report_payload(kind, report)
    failures = payload["failures"] + verdicts.invariant_failures()
    payload.update(verdicts.to_dict(), ok=not failures, failures=failures)
    return payload


def _execute_verify(job: Job) -> Dict[str, Any]:
    from pathlib import Path

    from repro.verify.campaign import run_verify_campaign

    params = job.spec.params
    report = run_verify_campaign(
        profile=params.get("profile", "ci"),
        max_examples=params.get("max_examples"),
        stateful_steps=params.get("steps"),
        smallmodel_depth=int(params.get("depth", 3)),
        run_machine=not params.get("skip_machine", False),
        run_smallmodel=not params.get("skip_smallmodel", False),
        bundle_dir=Path(params.get("bundle_dir", "verify-bundles")),
    )
    payload = report.to_dict()
    payload["kind"] = "verify"
    payload["failures"] = [] if report.passed else ["lockstep verification failed"]
    return payload


def execute_job(
    job: Job,
    should_abort: Callable[[], bool],
    progress: Optional[Callable[[int, int, str, Optional[str]], None]] = None,
    fleet=None,
) -> Dict[str, Any]:
    """Run one job to completion inside the calling (worker) thread.

    Opens the job's content-keyed run journal — taking its advisory
    lock, so a duplicate runner in another replica fails fast instead
    of interleaving — executes the campaign with cooperative abort, and
    returns the result payload. Verify jobs are stateless and skip the
    journal.
    """
    if job.spec.kind == "verify":
        return _execute_verify(job)
    journal = RunJournal.open(job.run_id, create=True)
    try:
        if job.spec.kind == "sweep":
            return _execute_sweep(job, journal, should_abort, progress, fleet=fleet)
        if job.spec.kind in ("chaos", "recovery"):
            return _execute_campaign(job, journal, should_abort, progress, fleet=fleet)
        raise ValueError(f"unknown job kind {job.spec.kind!r}")
    finally:
        journal.close()


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------


class _RunningJob:
    """Loop-side handle for one executing job."""

    __slots__ = ("job", "abort", "deadline_handle", "future")

    def __init__(self, job: Job) -> None:
        import threading

        self.job = job
        self.abort = threading.Event()
        self.deadline_handle = None
        self.future = None


class FairShareScheduler:
    """Async dispatcher: fair share across tenants, priority within."""

    def __init__(
        self,
        store: JobStore,
        quota: Optional[TenantQuota] = None,
        max_concurrent: int = 1,
        fleet=None,
    ) -> None:
        self.store = store
        self.quota = quota or TenantQuota()
        self.max_concurrent = max(1, max_concurrent)
        self.fleet = fleet  # FleetCoordinator campaign jobs fan out through
        self.draining = False
        self._queue: List[str] = []  # job ids, unsorted (picker sorts)
        self._running: Dict[str, _RunningJob] = {}
        #: Event logs of live jobs; a terminal job's log is in the journal.
        self._events: Dict[str, List[dict]] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrent,
            thread_name_prefix="repro-job",
        )
        self._wake: Optional[asyncio.Event] = None
        self._changed: Optional[asyncio.Condition] = None
        self._task: Optional[asyncio.Task] = None
        self._stopped = False
        # Per-tenant terminal counters + merged supervisor stats, the
        # scheduler half of /metrics.
        self.tenant_stats: Dict[str, Dict[str, Any]] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._changed = asyncio.Condition()
        self._task = asyncio.ensure_future(self._loop())

    async def stop(self) -> None:
        self._stopped = True
        if self._wake is not None:
            self._wake.set()
        if self._task is not None:
            await self._task
        self._executor.shutdown(wait=False)

    # -- events (for the streaming endpoint) -------------------------------

    @property
    def changed(self) -> asyncio.Condition:
        assert self._changed is not None, "scheduler not started"
        return self._changed

    def events_of(self, job_id: str) -> List[dict]:
        """A job's event log: the live list, or the journaled one.

        A live job's list is appended to in place, so a reader holding
        it sees the events emitted up to and including the terminal
        one, even when the job finishes while the reader is sending.
        """
        log = self._events.get(job_id)
        return log if log is not None else self.store.events(job_id)

    def _emit(self, job: Job, event: Dict[str, Any]) -> None:
        event = {"ts": round(time.time(), 3), "job": job.id, **event}
        log = self._events.setdefault(job.id, [])
        log.append(event)
        del log[:-MAX_EVENTS_PER_JOB]
        cond = self._changed
        if cond is not None:
            # May be called from the loop only (thread callbacks hop via
            # call_soon_threadsafe), so notifying directly is safe.
            asyncio.ensure_future(self._notify())

    def _seal(self, job: Job, payload: Optional[Dict[str, Any]] = None) -> None:
        """Land a job that just turned terminal: emit its last event,
        journal its record with its event log, and forget both."""
        self._emit_state(job)
        self.store.persist(job, events=self._events.pop(job.id))
        self._bump_tenant(job, payload)

    async def _notify(self) -> None:
        assert self._changed is not None
        async with self._changed:
            self._changed.notify_all()

    def _emit_state(self, job: Job, **extra: Any) -> None:
        self._emit(
            job,
            {
                "event": "state",
                "state": job.state,
                "error": job.error,
                **extra,
            },
        )

    # -- submission, cancellation, drain ------------------------------------

    def submit(self, job: Job) -> None:
        """Queue an admitted (or recovered) job and kick the dispatcher."""
        if job.state == STATE_SUBMITTED:
            job.transition(STATE_QUEUED)
        assert job.state == STATE_QUEUED, job.state
        self.store.persist(job)
        self._queue.append(job.id)
        self._emit_state(job, recovered=job.recovered)
        if self._wake is not None:
            self._wake.set()

    def cancel(self, job_id: str, reason: str = "cancelled by request") -> bool:
        """Cancel a queued or running job; False if terminal/unknown."""
        job = self.store.get(job_id)
        if job is None or job.terminal:
            return False
        job.cancel_requested = True
        if job.id in self._queue:
            self._queue.remove(job.id)
            job.error = reason
            job.transition(STATE_CANCELLED)
            self._seal(job)
            return True
        running = self._running.get(job_id)
        if running is not None:
            running.abort.set()  # observed at the next cell boundary
            self.store.persist(job)
            self._emit(job, {"event": "cancelling"})
            return True
        # Submitted but not yet queued (shouldn't happen; be safe).
        job.error = reason
        job.transition(STATE_CANCELLED)
        self._seal(job)
        return True

    async def drain(self, grace_seconds: float = 30.0) -> None:
        """Stop dispatching, let running jobs finish, abort stragglers.

        Queued jobs stay queued (and durable): a restarted server
        recovers them. Running jobs get ``grace_seconds`` to finish
        naturally; past that they are cooperatively aborted, which
        journals every completed cell before the job lands terminal.
        """
        self.draining = True
        if self._wake is not None:
            self._wake.set()
        deadline = time.monotonic() + max(0.0, grace_seconds)
        while self._running and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        for running in list(self._running.values()):
            running.abort.set()
        while self._running:
            await asyncio.sleep(0.05)

    # -- fair-share picking --------------------------------------------------

    def _running_of(self, tenant: str) -> int:
        return sum(
            1 for r in self._running.values() if r.job.tenant == tenant
        )

    def _pick(self) -> Optional[Job]:
        """Fairest runnable job: least-loaded tenant, priority, FIFO."""
        best: Optional[Job] = None
        best_sort = None
        for job_id in self._queue:
            job = self.store.get(job_id)
            if job is None or job.state != STATE_QUEUED:
                continue
            tenant_running = self._running_of(job.tenant)
            if tenant_running >= self.quota.max_running:
                continue  # tenant at quota: its jobs wait, others don't
            if any(
                r.job.run_id == job.run_id for r in self._running.values()
            ):
                # Same work content already executing: starting a twin
                # would only trip the run journal's advisory lock. Let
                # it finish; the twin then resumes everything from the
                # journal at zero cost.
                continue
            sort = (tenant_running, -job.spec.priority, job.seq)
            if best_sort is None or sort < best_sort:
                best, best_sort = job, sort
        return best

    # -- the dispatch loop ---------------------------------------------------

    async def _loop(self) -> None:
        assert self._wake is not None
        while not self._stopped:
            started = True
            while started:
                started = False
                if self.draining or len(self._running) >= self.max_concurrent:
                    break
                job = self._pick()
                if job is not None:
                    self._start(job)
                    started = True
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.25)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()

    def _start(self, job: Job) -> None:
        loop = asyncio.get_event_loop()
        self._queue.remove(job.id)
        running = _RunningJob(job)
        self._running[job.id] = running
        job.transition(STATE_RUNNING)
        self.store.persist(job)
        self._emit_state(job, resumed_run_id=job.run_id)

        if job.spec.deadline_seconds is not None:

            def on_deadline() -> None:
                if job.id in self._running:
                    job.deadline_hit = True
                    running.abort.set()
                    self._emit(
                        job,
                        {
                            "event": "deadline",
                            "deadline_seconds": job.spec.deadline_seconds,
                        },
                    )

            running.deadline_handle = loop.call_later(
                job.spec.deadline_seconds, on_deadline
            )

        def progress(done: int, total: int, label: str, error: Optional[str]) -> None:
            loop.call_soon_threadsafe(
                self._on_progress, job, done, total, label, error
            )

        running.future = loop.run_in_executor(
            self._executor,
            execute_job,
            job,
            running.abort.is_set,
            progress,
            self.fleet,
        )
        asyncio.ensure_future(self._finish(running))

    def _on_progress(
        self, job: Job, done: int, total: int, label: str, error: Optional[str]
    ) -> None:
        job.progress = {"done": done, "total": total}
        self._emit(
            job,
            {
                "event": "cell",
                "done": done,
                "total": total,
                "label": label,
                "ok": error is None,
            },
        )

    async def _finish(self, running: _RunningJob) -> None:
        job = running.job
        payload: Optional[Dict[str, Any]] = None
        error: Optional[str] = None
        state = STATE_DONE
        try:
            payload = await running.future
        except JobCancelled as exc:
            state = STATE_CANCELLED
            error = str(exc)
        except JournalLockedError as exc:
            state = STATE_FAILED
            error = f"JournalLockedError: {exc}"
        except SweepError as exc:
            state = STATE_FAILED
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 - job must land terminal
            state = STATE_FAILED
            error = f"{type(exc).__name__}: {exc}\n" + traceback.format_exc(limit=8)
        finally:
            if running.deadline_handle is not None:
                running.deadline_handle.cancel()

        if payload is not None:
            failures = payload.get("failures") or []
            aborted = running.abort.is_set()
            if job.cancel_requested and (failures or aborted):
                state, error = STATE_CANCELLED, "cancelled by request"
            elif job.deadline_hit and (failures or aborted):
                if job.spec.allow_partial:
                    state = STATE_PARTIAL
                    error = (
                        f"deadline of {job.spec.deadline_seconds:g}s exceeded; "
                        f"kept {payload.get('completion_rate', 0):.0%} of cells"
                    )
                else:
                    state = STATE_FAILED
                    error = (
                        f"deadline of {job.spec.deadline_seconds:g}s exceeded"
                    )
            elif failures:
                if job.spec.allow_partial:
                    state = STATE_PARTIAL
                    error = f"{len(failures)} cell(s) failed (partial kept)"
                else:
                    state = STATE_FAILED
                    error = "; ".join(str(f) for f in failures[:3])
            job.resumed_cells = int(payload.get("resumed_cells", 0))
        elif state == STATE_CANCELLED and job.deadline_hit:
            # A campaign aborted by its deadline raises JobCancelled too;
            # the deadline flag tells the difference.
            if not job.cancel_requested:
                state = STATE_FAILED
                error = f"deadline of {job.spec.deadline_seconds:g}s exceeded"

        job.result = payload
        job.error = error
        job.transition(state)
        del self._running[job.id]
        self._seal(job, payload)
        if self._wake is not None:
            self._wake.set()
        await self._notify()

    # -- metrics -------------------------------------------------------------

    def _bump_tenant(self, job: Job, payload: Optional[Dict[str, Any]] = None) -> None:
        stats = self.tenant_stats.setdefault(
            job.tenant,
            {
                "done": 0,
                "partial": 0,
                "failed": 0,
                "cancelled": 0,
                "resumed_cells": 0,
                "cells_done": 0,
                "cache_hits": 0,
                "supervisor": {},
            },
        )
        if job.state in stats:
            stats[job.state] += 1
        if payload:
            stats["resumed_cells"] += int(payload.get("resumed_cells", 0))
            cells = payload.get("cells") or []
            stats["cells_done"] += sum(1 for c in cells if c.get("ok"))
            stats["cache_hits"] += sum(1 for c in cells if c.get("cache_hit"))
            supervisor = payload.get("supervisor") or {}
            merged = stats["supervisor"]
            for name, value in supervisor.items():
                if isinstance(value, (int, float)):
                    merged[name] = merged.get(name, 0) + value

    def snapshot(self) -> Dict[str, Any]:
        """Queue/running/derived counters for /healthz and /metrics."""
        return {
            "queued": len(self._queue),
            "running": len(self._running),
            "draining": self.draining,
            "max_concurrent": self.max_concurrent,
        }
