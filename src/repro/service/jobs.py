"""``repro.service.jobs`` — the durable job model and state machine.

A *job* is one tenant's request to run a sweep / chaos / recovery /
verify campaign. Its lifecycle is an explicit state machine::

    submitted → queued → running → done
                   ↑         ├───→ partial      (allow_partial degradation)
                   │         ├───→ failed
                   │         └───→ cancelled
                   └─────────┘  (recovery: a job found `running` when the
                                 server restarts is re-queued, not lost)

Two durability layers make a SIGKILLed server resumable with **zero
re-execution**:

* **Job records** — every state transition is appended to a service
  journal (``service-<id>.jsonl`` via :class:`repro.journal.RunJournal`,
  one entry per transition, keyed by job id, last-wins). A restarted
  server replays the journal, re-queues every non-terminal job, and
  keeps the terminal ones queryable.
* **Cell results** — each job's campaign runs under its *own* run
  journal whose run id is derived from the job's idempotent
  :meth:`JobSpec.job_key` (a content hash of the work, not of the
  submission). Re-running the same job key — after a crash, or a tenant
  resubmitting the same spec — rehydrates every completed cell from that
  journal instead of recomputing it, exactly like ``--resume`` on the
  CLI. The cache-provenance plumbing (``cached_run_ex``) underneath is
  what proves "resumed" means *zero recompute*, not "recomputed fast".
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional

from repro.errors import ReproError
from repro.journal import RunJournal, journal_dir

__all__ = [
    "JOB_KINDS",
    "TERMINAL_STATES",
    "FinishedJob",
    "InvalidTransition",
    "Job",
    "JobSpec",
    "JobStore",
]

JOB_KINDS = ("sweep", "chaos", "recovery", "verify")

#: States in the durable job machine.
STATE_SUBMITTED = "submitted"
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_PARTIAL = "partial"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({STATE_DONE, STATE_PARTIAL, STATE_FAILED, STATE_CANCELLED})

#: Legal transitions; anything else is a server bug, surfaced loudly.
_TRANSITIONS = {
    STATE_SUBMITTED: {STATE_QUEUED, STATE_CANCELLED},
    STATE_QUEUED: {STATE_RUNNING, STATE_CANCELLED},
    STATE_RUNNING: {
        STATE_DONE,
        STATE_PARTIAL,
        STATE_FAILED,
        STATE_CANCELLED,
        STATE_QUEUED,  # crash recovery: a restarted server re-queues it
    },
    STATE_PARTIAL: set(),
    STATE_DONE: set(),
    STATE_FAILED: set(),
    STATE_CANCELLED: set(),
}


class InvalidTransition(ReproError):
    """An illegal job state transition (a server bug, not tenant input)."""

    def __init__(self, job_id: str, old: str, new: str) -> None:
        super().__init__(f"job {job_id}: illegal transition {old} -> {new}")
        self.job_id = job_id
        self.old = old
        self.new = new


@dataclass(frozen=True)
class JobSpec:
    """What to run — the content-addressed half of a job.

    ``params`` mirrors the CLI flags of the matching subcommand (grids,
    workloads, seed, ops_scale, fault kinds, scenarios ...). The *work*
    is identified by :meth:`job_key`, a hash of kind+params only:
    priority, deadline, workers, and tenant affect scheduling and
    accounting, never the result, so they stay out of the key — a
    resubmission with different priority still resumes the same run
    journal.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    deadline_seconds: Optional[float] = None
    allow_partial: bool = False
    workers: int = 1

    def validate(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r} (expected one of {JOB_KINDS})"
            )
        if not isinstance(self.params, dict):
            raise ValueError("params must be a JSON object")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.params}

    def job_key(self) -> str:
        """Idempotency key: same work content → same key → same journal."""
        blob = json.dumps(self.canonical(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def run_id(self) -> str:
        """The run-journal id this job's cells checkpoint under."""
        return f"job-{self.job_key()}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "params": self.params,
            "priority": self.priority,
            "deadline_seconds": self.deadline_seconds,
            "allow_partial": self.allow_partial,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return cls(
            kind=data["kind"],
            params=dict(data.get("params") or {}),
            priority=int(data.get("priority", 0)),
            deadline_seconds=data.get("deadline_seconds"),
            allow_partial=bool(data.get("allow_partial", False)),
            workers=int(data.get("workers", 1)),
        )


@dataclass
class Job:
    """One submission's full lifecycle record (durable via the store)."""

    id: str
    tenant: str
    spec: JobSpec
    state: str = STATE_SUBMITTED
    seq: int = 0  # monotonic submission order, the FIFO tie-breaker
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    progress: Dict[str, int] = field(default_factory=lambda: {"done": 0, "total": 0})
    resumed_cells: int = 0
    cancel_requested: bool = False
    deadline_hit: bool = False
    recovered: bool = False  # re-queued by a restarted server

    @property
    def job_key(self) -> str:
        return self.spec.job_key()

    @property
    def run_id(self) -> str:
        return self.spec.run_id()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, new_state: str) -> None:
        if new_state not in _TRANSITIONS.get(self.state, set()):
            raise InvalidTransition(self.id, self.state, new_state)
        self.state = new_state
        if new_state == STATE_RUNNING and self.started is None:
            self.started = time.time()
        if new_state in TERMINAL_STATES:
            self.finished = time.time()

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        payload = {
            "id": self.id,
            "tenant": self.tenant,
            "kind": self.spec.kind,
            "job_key": self.job_key,
            "run_id": self.run_id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "seq": self.seq,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "progress": dict(self.progress),
            "resumed_cells": self.resumed_cells,
            "cancel_requested": self.cancel_requested,
            "deadline_hit": self.deadline_hit,
            "recovered": self.recovered,
        }
        if include_result:
            payload["result"] = self.result
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        job = cls(
            id=data["id"],
            tenant=data["tenant"],
            spec=JobSpec.from_dict(data["spec"]),
            state=data.get("state", STATE_SUBMITTED),
            seq=int(data.get("seq", 0)),
            created=float(data.get("created", 0.0)),
            started=data.get("started"),
            finished=data.get("finished"),
            error=data.get("error"),
            result=data.get("result"),
            resumed_cells=int(data.get("resumed_cells", 0)),
            cancel_requested=bool(data.get("cancel_requested", False)),
            deadline_hit=bool(data.get("deadline_hit", False)),
            recovered=bool(data.get("recovered", False)),
        )
        job.progress = dict(data.get("progress") or {"done": 0, "total": 0})
        return job


class FinishedJob(NamedTuple):
    """What memory keeps of a terminal job: a fixed-size index entry.

    The job's full record (result included) and its event log live in
    the service journal, on the line the journal's index points at for
    the job id; this holds what listing, ``/metrics`` and retention ask
    of every job without reading that line.
    """

    state: str
    tenant: str
    run_id: str
    seq: int
    finished: Optional[float]

    terminal = True


class JobStore:
    """Durable job records over an append-only service journal.

    One journal entry per state transition, keyed by job id, replayed
    last-wins on restart — the same idempotent-replay machinery the
    cell journals use, applied one level up. The journal's advisory
    lock doubles as single-writer enforcement for the whole service id:
    a second replica pointed at the same service id fails fast with
    :class:`repro.journal.JournalLockedError` instead of corrupting job
    records.

    Only live jobs stay in memory. A job's terminal entry carries its
    final record and its event log; from then on the store keeps a
    :class:`FinishedJob` and reads that one journal line back whenever
    the job's record or events are asked for, so a finished job costs
    memory for its index entries, not for its record. A restarted server
    compacts the journal to its last entry per job, then rebuilds the
    same split from it.
    """

    def __init__(
        self, service_id: str, directory: Optional[Path] = None
    ) -> None:
        self.service_id = service_id
        self._journal = RunJournal.open(
            f"service-{service_id}", directory=directory, create=True
        )
        # Each job appends a line per transition; only its last is read.
        self._journal.compact()
        self._live: Dict[str, Job] = {}
        self._finished: Dict[str, FinishedJob] = {}
        self._seq = 0
        for job_id in self._journal.keys():
            record = self._journal.lookup(job_id).get("job")
            if not record:
                continue
            try:
                job = Job.from_dict(record)
            except (KeyError, TypeError, ValueError):
                continue  # unreadable record: skip, never crash the server
            self._remember(job)
            self._seq = max(self._seq, job.seq)

    def _remember(self, job: Job) -> None:
        if job.terminal:
            self._live.pop(job.id, None)
            self._finished[job.id] = FinishedJob(
                job.state, job.tenant, job.run_id, job.seq, job.finished
            )
        else:
            self._live[job.id] = job

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._journal.close()

    def recover(self) -> List[Job]:
        """Re-queue every job the dead server left non-terminal.

        ``running`` jobs were mid-campaign when the server died; their
        cell journals hold everything they completed, so re-queueing
        them costs re-dispatch, never re-execution. Returns the
        recovered jobs in submission order.
        """
        recovered = []
        for job in sorted(self._live.values(), key=lambda j: j.seq):
            if job.state in (STATE_RUNNING, STATE_SUBMITTED):
                job.transition(STATE_QUEUED)
            job.recovered = True
            self.persist(job)
            recovered.append(job)
        return recovered

    # -- creation and persistence -----------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def create(self, tenant: str, spec: JobSpec) -> Job:
        seq = self.next_seq()
        job = Job(
            id=f"j{seq:06d}-{spec.job_key()[:8]}",
            tenant=tenant,
            spec=spec,
            seq=seq,
            created=time.time(),
        )
        self.persist(job)
        return job

    def persist(self, job: Job, events: Optional[List[dict]] = None) -> None:
        """Journal ``job``'s current record.

        A terminal record is journaled with the job's ``events`` and is
        the job's last entry: the store drops the job from memory and
        keeps its :class:`FinishedJob`.
        """
        entry: Dict[str, Any] = {
            "ok": job.state in (STATE_DONE, STATE_PARTIAL),
            "state": job.state,
            "job": job.to_dict(),
        }
        if job.terminal:
            entry["events"] = events or []
        self._journal.record(job.id, entry)
        self._remember(job)

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """The job, rebuilt from its journal line once it is terminal."""
        job = self._live.get(job_id)
        if job is None and job_id in self._finished:
            job = Job.from_dict(self._journal.lookup(job_id)["job"])
        return job

    def state_of(self, job_id: str) -> Optional[str]:
        job = self._live.get(job_id) or self._finished.get(job_id)
        return None if job is None else job.state

    def record(
        self, job_id: str, include_result: bool = True
    ) -> Optional[Dict[str, Any]]:
        """The job's wire record: a finished job's is its journal line's."""
        job = self._live.get(job_id)
        if job is not None:
            return job.to_dict(include_result=include_result)
        if job_id not in self._finished:
            return None
        record = self._journal.lookup(job_id)["job"]
        if not include_result:
            record.pop("result", None)
        return record

    def events(self, job_id: str) -> List[dict]:
        """A finished job's event log, as journaled with its last record."""
        if job_id not in self._finished:
            return []
        return self._journal.lookup(job_id).get("events") or []

    def records(
        self, tenant: Optional[str] = None, state: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Every matching job's record without its result, by submission."""
        matches = sorted(
            (job.seq, job_id)
            for jobs in (self._live, self._finished)
            for job_id, job in jobs.items()
            if (tenant is None or job.tenant == tenant)
            and (state is None or job.state == state)
        )
        return [self.record(job_id, include_result=False) for _, job_id in matches]

    def active_by_key(self, job_key: str) -> Optional[Job]:
        """The live (non-terminal) job for an idempotency key, if any."""
        for job in self._live.values():
            if job.job_key == job_key:
                return job
        return None

    def counts(self, tenant: Optional[str] = None) -> Dict[str, int]:
        """Queued and running jobs of ``tenant`` (of every tenant if None)."""
        queued = running = 0
        for job in self._live.values():
            if tenant is not None and job.tenant != tenant:
                continue
            if job.state in (STATE_SUBMITTED, STATE_QUEUED):
                queued += 1
            elif job.state == STATE_RUNNING:
                running += 1
        return {"queued": queued, "running": running}

    def totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for job in self.summaries():
            totals[job.state] = totals.get(job.state, 0) + 1
        return totals

    def summaries(self) -> List[Any]:
        """Every job, live ones as :class:`Job` and finished ones as
        :class:`FinishedJob`: both carry ``state``, ``tenant``,
        ``run_id``, ``seq``, ``finished`` and ``terminal``."""
        return [*self._live.values(), *self._finished.values()]
