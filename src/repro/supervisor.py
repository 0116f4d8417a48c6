"""``repro.supervisor`` — a crash-tolerant process-pool supervisor.

PR 1 taught the *simulated* hardware to survive drops, hangs and
bit-flips (timeouts, bounded backoff, watchdogs, quarantine). This
module applies the same vocabulary to the *host-side* pool that runs
the experiment campaigns, so one OOM-killed or wedged worker never
poisons an entire sweep:

* **One pool per host process** — :data:`shared_pool` is started by the
  first parallel fan-out, sized to that call's ``workers``, and lives
  until the process exits. Every fan-out (CLI campaigns, service jobs)
  and every fleet worker submits to it; a call asking for another size
  retires it (in-flight tasks still finish) and starts a new one.
  Tasks carry everything they need, so a worker keeps nothing of one
  campaign that another could see. The pool initializer
  (:func:`_worker_init`) only starts the owner watch.
* **Worker-crash containment** — a dead worker breaks the pool for
  every pending future. The first supervisor to see the break replaces
  the pool; any other finds it replaced and resubmits. Each charges a
  failed *attempt* only to its own tasks seen running on the dead
  pool, and resubmits everything else untouched.
* **Failure taxonomy** — worker-side exceptions are classified as
  ``transient`` (:class:`~repro.errors.TransientCellError`, retried
  with bounded exponential backoff), ``crash`` / ``deadline``
  (retried on a fresh pool), or ``deterministic``. A task failing
  with the *same* deterministic error twice is quarantined as
  **poison**: no further retries, and a serialized repro bundle
  (task parameters + traceback) is written under
  ``<quarantine_dir>/`` for offline replay via
  ``border-control replay-cell``. One :class:`RetryLedger` keeps this
  account, and the fleet coordinator charges the same one, so a task
  fails the same way serially, on the pool or on the fleet.
* **Deadlines** — with ``deadline_seconds`` set, a task that holds a
  worker past its wall-clock budget gets the workers of the pool it
  was submitted to killed (a single worker of a pool cannot be killed
  in isolation); only the overdue tasks are charged an attempt. A
  deliberate kill (a deadline or an abort) charges only the campaign
  that killed: other campaigns' tasks on that pool are resubmitted
  free.
* **Observability** — every recovery action is counted in
  :class:`SupervisorStats`, which the sweep layer surfaces in
  ``SweepReport.render()`` and ``BENCH_sweep.json``.

All machinery is pay-as-you-go: an undisturbed run takes the exact
same single-submission path as before. The only standing cost is a
4 Hz wake-up of the coordinating thread (to sample which futures are
running, the input to crash/deadline accounting) — it never touches
the workers and adds nothing to any cell's measured time.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing.util
import os
import threading
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import TransientCellError
from repro.faults.plan import derive_seed

__all__ = [
    "BUNDLE_SCHEMA",
    "CampaignKind",
    "ERROR_ABORTED",
    "ERROR_CRASH",
    "ERROR_DEADLINE",
    "ERROR_DETERMINISTIC",
    "ERROR_TRANSIENT",
    "RetryLedger",
    "SupervisorPolicy",
    "SupervisorStats",
    "TaskOutcome",
    "pool_error",
    "shared_pool",
    "supervised_map",
    "traced_call",
    "write_poison_bundle",
]

BUNDLE_SCHEMA = "repro-poison-cell-v1"

#: Failure kinds in :attr:`TaskOutcome.error_kind`.
ERROR_TRANSIENT = "transient"
ERROR_DETERMINISTIC = "deterministic"
ERROR_CRASH = "crash"
ERROR_DEADLINE = "deadline"
ERROR_ABORTED = "aborted"

ProgressFn = Callable[[int, int, str, Optional[str]], None]
#: ``describe_task(task)`` returns a JSON-serializable replay recipe for
#: the poison bundle (``None`` → the bundle records only ``repr(task)``).
DescribeFn = Callable[[Any], Optional[Dict[str, Any]]]
OnOutcomeFn = Callable[[int, "TaskOutcome"], None]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/deadline policy for one supervised fan-out.

    The defaults retry crashes and transient failures a couple of times
    and quarantine repeating deterministic failures; they add no cost
    to a run in which nothing fails. ``SupervisorPolicy(retries=0)``
    restores single-shot semantics (every failure is final) while
    keeping crash containment: queued siblings of a dead worker are
    still resubmitted on a rebuilt pool.
    """

    #: Maximum *re*-executions per task (0 = never retry).
    retries: int = 2
    #: First retry delay; doubles per attempt, capped at ``backoff_max``.
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    #: Per-task wall-clock budget (None = no deadline). Parallel mode
    #: only — a serial in-process call cannot be preempted.
    deadline_seconds: Optional[float] = None
    #: Identical deterministic failures before a task is poison.
    max_identical_failures: int = 2
    #: Where poison repro bundles land (None = skip writing bundles).
    quarantine_dir: Optional[Path] = None
    #: Retry-jitter amplitude: each backoff delay is scaled by a factor
    #: drawn deterministically from ``[1 - jitter, 1 + jitter]``. Without
    #: it, N tasks failing together (one dead node, one throttled disk)
    #: back off in lockstep and retry as a thundering herd — across a
    #: fleet, all against the same coordinator. 0 disables jitter.
    jitter: float = 0.25
    #: Seed for the jitter draw. The sweep layer derives it from the run
    #: id, so a resumed run replays the exact same delays (replay
    #: determinism) while different runs decorrelate.
    jitter_seed: int = 0

    def backoff(self, attempts: int, jitter_key: str = "") -> float:
        """Delay before re-running a task that has failed ``attempts`` times.

        ``jitter_key`` identifies the (task, attempt) doing the waiting;
        the delay is then a pure function of ``(policy, jitter_key)`` —
        deterministic under replay, decorrelated across tasks. An empty
        key skips jitter (the bare exponential schedule).
        """
        if attempts <= 0:
            return 0.0
        delay = min(self.backoff_max, self.backoff_base * (2.0 ** (attempts - 1)))
        if self.jitter > 0.0 and jitter_key:
            unit = derive_seed(self.jitter_seed, jitter_key) / 0xFFFFFFFF
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return delay


@dataclass
class SupervisorStats:
    """Counters for every recovery action one fan-out performed."""

    retries: int = 0
    pool_rebuilds: int = 0
    poison_cells: int = 0
    deadline_kills: int = 0
    resumed_cells: int = 0  # filled by the journal layer, not here

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "poison_cells": self.poison_cells,
            "deadline_kills": self.deadline_kills,
            "resumed_cells": self.resumed_cells,
        }

    @property
    def any_recovery(self) -> bool:
        return any(self.as_dict().values())


class TaskOutcome(NamedTuple):
    """Final fate of one task after supervision."""

    value: Any
    error: Optional[str]
    wall_seconds: float
    attempts: int = 1
    error_kind: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class CampaignKind:
    """One campaign kind as plain data for :func:`repro.sweep.run_campaign`.

    ``cell_fn`` is the picklable worker entry point, ``label_of`` names a
    cell, ``recipe_of`` is its JSON replay recipe (poison bundles embed
    it) and ``to_dict``/``from_dict`` is the lossless result codec the
    journal stores. The journal key is ``key_of(cell)`` when given, else
    ``"<name>-"`` plus a hash of the recipe.

    ``cacheable`` is set only for kinds backed by the result cache
    (sweeps): their ``cell_fn`` takes ``(cell, use_disk, fresh)`` and
    returns ``(result, cache_hit)``, and a cell it rejects is a trace
    cell — journaled without a result, never resumed and never sent to
    the fleet.
    """

    name: str
    cell_fn: Callable[[Any], Any]
    label_of: Callable[[Any], str]
    recipe_of: Callable[[Any], Dict[str, Any]]
    to_dict: Callable[[Any], Dict[str, Any]]
    from_dict: Callable[[Dict[str, Any]], Any]
    key_of: Optional[Callable[[Any], str]] = None
    cacheable: Optional[Callable[[Any], bool]] = None

    def journal_key(self, cell: Any) -> str:
        if self.key_of is not None:
            return self.key_of(cell)
        blob = json.dumps(self.recipe_of(cell), sort_keys=True)
        return f"{self.name}-{hashlib.sha256(blob.encode()).hexdigest()[:24]}"

    def describe(self, cell: Any) -> Dict[str, Any]:
        return {"kind": self.name, "cell": self.recipe_of(cell)}

    def resumable(self, cell: Any) -> bool:
        """Is this cell's result journaled, so a later run can resume it?"""
        return self.cacheable is None or self.cacheable(cell)

    def split(self, value: Any) -> Tuple[Any, bool]:
        """``(result, cache_hit)`` of one ``cell_fn`` return value."""
        if self.cacheable is None or value is None:
            return value, False
        return value


def traced_call(fn: Callable, task: Any) -> Tuple[Any, Optional[str], float, Optional[str]]:
    """Run one call, capturing wall time, traceback, and failure kind.

    Exceptions are flattened to strings *inside* the worker — raw
    exception objects don't always survive pickling, and the parent
    wants every failure, not just the first. The fourth element is the
    taxonomy kind (:data:`ERROR_TRANSIENT` / :data:`ERROR_DETERMINISTIC`)
    the supervisor's retry policy keys on.
    """
    start = time.perf_counter()
    try:
        value = fn(task)
        return value, None, time.perf_counter() - start, None
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        tb = traceback.format_exc(limit=8)
        kind = (
            ERROR_TRANSIENT
            if isinstance(exc, TransientCellError)
            else ERROR_DETERMINISTIC
        )
        return (
            None,
            f"{type(exc).__name__}: {exc}\n{tb}",
            time.perf_counter() - start,
            kind,
        )


def write_poison_bundle(
    quarantine_dir: Path,
    task: Any,
    error: str,
    attempts: int,
    describe_task: Optional[DescribeFn] = None,
    label: str = "",
) -> Path:
    """Serialize a poison task's repro recipe; returns the bundle path.

    The bundle is written atomically (temp file + ``os.replace``) so a
    killed run never leaves a truncated bundle, and named by a stable
    hash of its contents so re-quarantining the same cell overwrites
    rather than accumulates.
    """
    recipe = describe_task(task) if describe_task is not None else None
    if recipe is None:
        recipe = {"kind": "opaque", "repr": repr(task)}
    payload = {
        "schema": BUNDLE_SCHEMA,
        "label": label,
        "attempts": attempts,
        "error": error,
        **recipe,
    }
    digest_src = json.dumps(
        {k: v for k, v in payload.items() if k not in ("error", "attempts")},
        sort_keys=True,
        default=str,
    )
    name = hashlib.sha256(digest_src.encode()).hexdigest()[:16]
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    path = quarantine_dir / f"poison-{name}.json"
    tmp = quarantine_dir / f".poison-{name}.{os.getpid()}.tmp"
    tmp.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    os.replace(tmp, path)
    return path


#: Seconds between a pool worker's checks that its owner is alive.
_OWNER_POLL_SECONDS = 1.0


def _pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, but another user's process
        pass
    return True


def _worker_init(owner: int) -> None:
    """Pool initializer: the owner watch.

    A daemon thread polls the worker's parent pid and ends the worker
    with ``os._exit`` once it changes, or once ``owner``, the pid of the
    process that built the pool, no longer exists. A worker blocked on
    its task queue would otherwise outlive an owner killed by SIGKILL,
    reparented and asleep forever. The parent alone is not enough: an
    owner killed between the fork and this call leaves the worker
    already reparented, so the parent it sees here never changes.
    Everything else a task needs travels with the task (see
    :func:`repro.sweep.fan_out`).
    """
    parent = os.getppid()

    def watch_owner() -> None:
        while os.getppid() == parent and _pid_exists(owner):
            time.sleep(_OWNER_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch_owner, name="owner-watch", daemon=True).start()


class _SharedPool:
    """The host process's one worker pool (see the module docstring).

    Started lazily by the first :meth:`submit`, so a process that never
    fans out never forks, and a pool forks after whatever the process
    set up before its first parallel call. Retiring a pool — because it
    broke, was killed, or a caller asked for another size — and starting
    the next are serialized by one lock, so each break is replaced once.
    """

    def __init__(self) -> None:
        self._forget()
        # A forked child (a pool worker among them) inherits this object
        # but not the pool's threads, and the lock as the forking thread
        # held it: without this, a task that fans out itself deadlocks.
        os.register_at_fork(after_in_child=self._forget)
        #: Pools retired because they broke or were killed.
        self.replacements = 0

    def _forget(self) -> None:
        self._exit_hook = False
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._size = 0
        self._killed: "weakref.WeakSet[ProcessPoolExecutor]" = weakref.WeakSet()
        # Each pool's worker processes. ``shutdown()`` drops the executor's
        # own reference, and a retired pool may still need killing.
        self._workers: "weakref.WeakKeyDictionary[ProcessPoolExecutor, Dict[int, Any]]" = (
            weakref.WeakKeyDictionary()
        )

    def submit(
        self, workers: int, fn: Callable, *args: Any
    ) -> Tuple[Future, ProcessPoolExecutor, bool]:
        """Submit ``fn(*args)`` to a pool of ``workers`` processes.

        Returns the future, the pool it went to, and whether this call
        replaced a broken pool on the way.
        """
        with self._lock:
            executor = self._current(workers)
            try:
                return executor.submit(fn, *args), executor, False
            except BrokenProcessPool:  # broke before any task saw it
                self._retire(executor)
                self._stop(executor)
                executor = self._current(workers)
                return executor.submit(fn, *args), executor, True

    def replace(self, broken: ProcessPoolExecutor) -> bool:
        """Retire a broken pool; True only for the call that did."""
        with self._lock:
            replaced = self._retire(broken)
        if replaced:
            self._stop(broken)
        return replaced

    def kill(self, executor: ProcessPoolExecutor) -> bool:
        """Kill a pool's workers on purpose (a deadline or an abort).

        Tasks that other campaigns had on it see :meth:`killed` and are
        resubmitted free. True when it was the current pool.
        """
        with self._lock:
            self._killed.add(executor)
            replaced = self._retire(executor)
        self._stop(executor)
        return replaced

    def killed(self, executor: ProcessPoolExecutor) -> bool:
        return executor in self._killed

    def shutdown(self) -> None:
        """Stop the current pool after its queued tasks; the next
        :meth:`submit` starts a fresh one."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def _current(self, workers: int) -> ProcessPoolExecutor:
        """The pool to submit to, started or resized first if need be."""
        if self._executor is not None and self._size != workers:
            self._executor.shutdown(wait=False)
            self._executor = None
        if self._executor is None:
            if not self._exit_hook:
                # A multiprocessing child joins its children before the
                # interpreter stops pools: stop this one first, while the
                # task queue (closed at exit priority 10) still runs.
                multiprocessing.util.Finalize(self, self.shutdown, exitpriority=20)
                self._exit_hook = True
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(os.getpid(),),
            )
            self._workers[self._executor] = getattr(self._executor, "_processes", {})
            self._size = workers
        return self._executor

    def _retire(self, executor: ProcessPoolExecutor) -> bool:
        if executor is not self._executor:
            return False
        self._executor = None
        self.replacements += 1
        return True

    def _stop(self, executor: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*, without waiting on in-flight work.

        ``ProcessPoolExecutor`` has no per-worker kill, so every worker
        process goes. The executor then fails every future it still
        holds with :class:`BrokenProcessPool` — queued ones too, which
        is why nothing here cancels them: a cancelled future never
        turns up in :func:`concurrent.futures.wait`.
        """
        for proc in list(self._workers.get(executor, {}).values()):
            try:
                proc.kill()
            except (OSError, ValueError):  # already gone
                pass
        executor.shutdown(wait=False)


#: The one pool every supervised fan-out and fleet worker submits to.
shared_pool = _SharedPool()


def pool_error(exc: BaseException) -> str:
    """The error of a task its pool failed: a dead process, or plumbing
    such as an unpicklable call. Fleet workers report the same text."""
    if isinstance(exc, BrokenProcessPool):
        return f"{type(exc).__name__}: worker process died mid-cell ({exc})"
    return f"{type(exc).__name__}: {exc}"


@dataclass
class _TaskState:
    """Mutable supervision bookkeeping for one task."""

    index: int
    attempts: int = 0  # completed (failed) executions so far
    identical_failures: int = 0
    last_error: Optional[str] = None
    free_rides: int = 0  # losses while never seen running


def _first_line(error: str) -> str:
    return error.splitlines()[0] if error else error


class RetryLedger:
    """Per-task failure accounting under one :class:`SupervisorPolicy`.

    Every placement charges its failures here — the serial loop, the
    shared pool and the fleet coordinator — so a task's ``attempts``,
    error kind and text, poison bundle and the :class:`SupervisorStats`
    counters do not depend on where it ran.
    """

    #: Losses a task rides for free while never seen running: queued
    #: siblings of a dead pool process, or fleet leases lost with a worker
    #: or a frame. Past that, the task is the crasher nobody sees running.
    FREE_RIDES = 3

    def __init__(
        self,
        tasks: Sequence[Any],
        policy: SupervisorPolicy,
        stats: SupervisorStats,
        label_of: Callable[[Any], str],
        describe_task: Optional[DescribeFn],
    ) -> None:
        self.tasks = tasks
        self.policy = policy
        self.stats = stats
        self.label_of = label_of
        self.describe_task = describe_task
        self.states = [_TaskState(i) for i in range(len(tasks))]

    def ride(self, index: int) -> bool:
        """Count one loss of a task not seen running; True while it
        rides free (:attr:`FREE_RIDES`), False when it must be charged."""
        self.states[index].free_rides += 1
        return self.states[index].free_rides <= self.FREE_RIDES

    def charge(self, index: int, error: str, kind: str) -> Optional[float]:
        """Account one failed execution.

        Returns the backoff delay before the next attempt, or ``None``
        when the task is out of budget (the caller finalizes it with
        :meth:`failed`). Poison detection happens here: a deterministic
        failure whose first line matches the previous one counts toward
        ``max_identical_failures``.
        """
        state = self.states[index]
        state.attempts += 1
        if kind == ERROR_DETERMINISTIC:
            if state.last_error is not None and _first_line(
                state.last_error
            ) == _first_line(error):
                state.identical_failures += 1
            else:
                state.identical_failures = 1
        state.last_error = error
        if (
            kind == ERROR_DETERMINISTIC
            and state.identical_failures >= self.policy.max_identical_failures
        ):
            self._quarantine(state, error)
            return None
        if state.attempts > self.policy.retries:
            return None
        self.stats.retries += 1
        return self.policy.backoff(
            state.attempts, jitter_key=f"{state.index}:{state.attempts}"
        )

    def failed(self, index: int, wall: float, kind: Optional[str]) -> TaskOutcome:
        """The final outcome of a task :meth:`charge` put out of budget."""
        state = self.states[index]
        return TaskOutcome(None, state.last_error, wall, state.attempts, kind)

    def _quarantine(self, state: _TaskState, error: str) -> None:
        self.stats.poison_cells += 1
        if self.policy.quarantine_dir is None:
            return
        try:
            path = write_poison_bundle(
                self.policy.quarantine_dir,
                self.tasks[state.index],
                error,
                state.attempts,
                describe_task=self.describe_task,
                label=self.label_of(self.tasks[state.index]),
            )
            state.last_error = (
                f"{error}\n[poison: quarantined after "
                f"{state.identical_failures} identical failures; "
                f"repro bundle: {path}]"
            )
        except OSError:  # bundle write is best-effort
            pass


class _Supervisor(RetryLedger):
    """One supervised fan-out: the retry/deadline loop over the shared pool."""

    #: How often the event loop wakes to sample running futures (the
    #: basis for crash charging and deadline checks), in seconds.
    _DEADLINE_POLL = 0.25

    def __init__(
        self,
        fn: Callable,
        tasks: Sequence[Any],
        workers: int,
        policy: SupervisorPolicy,
        stats: SupervisorStats,
        progress: Optional[ProgressFn],
        label_of: Callable[[Any], str],
        describe_task: Optional[DescribeFn],
        on_outcome: Optional[OnOutcomeFn],
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        super().__init__(tasks, policy, stats, label_of, describe_task)
        self.fn = fn
        self.workers = workers
        self.progress = progress
        self.on_outcome = on_outcome
        self.should_abort = should_abort
        self.outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        self.done_count = 0

    def _aborted(self) -> bool:
        return self.should_abort is not None and self.should_abort()

    def _finalize_aborted(self) -> None:
        """Seal every unfinished task as aborted (never executed again).

        Cooperative cancellation: the job server's cancel/drain/deadline
        paths flip ``should_abort`` from another thread; the supervisor
        observes it at the next dispatch boundary. Aborted outcomes are
        recorded as *failures* (``ok=False``), so a journaled resume
        re-executes exactly these cells and none of the completed ones.
        """
        for index, outcome in enumerate(self.outcomes):
            if outcome is None:
                self._finalize(
                    index,
                    TaskOutcome(
                        None,
                        "JobCancelled: aborted before completion "
                        "(cancellation, drain, or deadline)",
                        0.0,
                        self.states[index].attempts,
                        ERROR_ABORTED,
                    ),
                )

    # -- shared bookkeeping ------------------------------------------------

    def _finalize(self, index: int, outcome: TaskOutcome) -> None:
        self.outcomes[index] = outcome
        self.done_count += 1
        if self.on_outcome is not None:
            self.on_outcome(index, outcome)
        if self.progress is not None:
            self.progress(
                self.done_count,
                len(self.tasks),
                self.label_of(self.tasks[index]),
                outcome.error,
            )

    # -- serial path -------------------------------------------------------

    def run_serial(self) -> List[TaskOutcome]:
        for i, task in enumerate(self.tasks):
            if self._aborted():
                break
            while True:
                value, error, wall, kind = traced_call(self.fn, task)
                if error is None:
                    attempts = self.states[i].attempts + 1
                    self._finalize(i, TaskOutcome(value, None, wall, attempts))
                    break
                delay = self.charge(i, error, kind or ERROR_DETERMINISTIC)
                if delay is None:
                    self._finalize(i, self.failed(i, wall, kind))
                    break
                if delay > 0:
                    time.sleep(delay)
                if self._aborted():
                    break
        self._finalize_aborted()
        return [out for out in self.outcomes if out is not None]

    # -- parallel path -----------------------------------------------------

    def run_parallel(self) -> List[TaskOutcome]:
        policy = self.policy
        # Each in-flight future with its task index and the pool it went
        # to: after a resize that may be a retired pool, and a crash or a
        # kill concerns only that pool's futures.
        in_pool: Dict[Future, Tuple[int, ProcessPoolExecutor]] = {}
        running_since: Dict[int, float] = {}
        # (due monotonic time, index) — tasks waiting out a retry backoff.
        delayed: List[Tuple[float, int]] = []
        to_submit: "deque[int]" = deque(range(len(self.tasks)))

        def submit(index: int) -> None:
            fut, pool, replaced = shared_pool.submit(
                self.workers, traced_call, self.fn, self.tasks[index]
            )
            self.stats.pool_rebuilds += replaced
            in_pool[fut] = (index, pool)

        def release(pools: Set[ProcessPoolExecutor]) -> None:
            """Requeue, uncharged, every task still in flight on ``pools``."""
            for fut, (index, pool) in list(in_pool.items()):
                if pool in pools:
                    del in_pool[fut]
                    running_since.pop(index, None)
                    to_submit.append(index)

        def kill(pools: Set[ProcessPoolExecutor]) -> None:
            for pool in pools:
                self.stats.pool_rebuilds += shared_pool.kill(pool)
            release(pools)

        def fail_or_retry(index: int, error: str, kind: str, wall: float) -> None:
            delay = self.charge(index, error, kind)
            if delay is None:
                self._finalize(index, self.failed(index, wall, kind))
            elif delay > 0:
                delayed.append((time.monotonic() + delay, index))
            else:
                to_submit.append(index)

        def settle(fut: Future, now: float, broken: Set[ProcessPoolExecutor]) -> None:
            """Seal, retry or resubmit one finished future's task.

            A pool break charges an attempt only to a task seen running
            on it; queued siblings ride for free, up to the ledger's
            :attr:`~RetryLedger.FREE_RIDES`, so a crasher that dies
            between running-state samples cannot ride forever. A pool
            another campaign killed on purpose charges nothing.
            """
            index, pool = in_pool.pop(fut)
            was_running = index in running_since
            started = running_since.pop(index, now)
            try:
                value, error, wall, kind = fut.result()
            except BrokenProcessPool as exc:
                if shared_pool.killed(pool):
                    to_submit.append(index)
                    return
                broken.add(pool)
                if was_running or not self.ride(index):
                    fail_or_retry(index, pool_error(exc), ERROR_CRASH, now - started)
                else:
                    to_submit.append(index)
                return
            except Exception as exc:  # pool plumbing failure
                fail_or_retry(index, pool_error(exc), ERROR_CRASH, now - started)
                return
            if error is None:
                self._finalize(
                    index,
                    TaskOutcome(value, None, wall, self.states[index].attempts + 1),
                )
            else:
                fail_or_retry(index, error, kind or ERROR_DETERMINISTIC, wall)

        try:
            while self.done_count < len(self.tasks):
                if self._aborted():
                    # Cooperative cancellation observed at the poll
                    # boundary: kill in-flight workers now (their cells
                    # are charged as aborted, not crashed) and seal
                    # everything unfinished.
                    kill({pool for _, pool in in_pool.values()})
                    self._finalize_aborted()
                    return [out for out in self.outcomes if out is not None]
                now = time.monotonic()
                # Release backed-off tasks whose delay elapsed.
                still_delayed = []
                for due, index in delayed:
                    if due <= now:
                        to_submit.append(index)
                    else:
                        still_delayed.append((due, index))
                delayed[:] = still_delayed
                while to_submit:
                    submit(to_submit.popleft())

                if not in_pool:
                    # Only backed-off tasks remain; sleep until the next one.
                    if delayed:
                        time.sleep(max(0.0, min(d for d, _ in delayed) - now))
                        continue
                    break  # defensive: nothing queued, nothing pending

                # Bounded wait: the wake-up is how running states get
                # sampled. Without it, a task whose worker dies before any
                # sibling completes is never observed "running", so a crash
                # could never be charged an attempt (infinite free
                # resubmission of an always-crashing cell).
                timeout = self._DEADLINE_POLL
                if delayed:
                    timeout = min(
                        timeout, max(0.0, min(d for d, _ in delayed) - now)
                    )

                finished, _ = wait(
                    set(in_pool), timeout=timeout, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                # A future turns "running" once the executor hands it to a
                # worker; note the time for deadline accounting.
                for fut, (index, _pool) in in_pool.items():
                    if index not in running_since and fut.running():
                        running_since[index] = now

                broken: Set[ProcessPoolExecutor] = set()
                for fut in finished:
                    settle(fut, now, broken)
                if broken:
                    # The executor fails every future of a dead pool; settle
                    # the ones already done so running victims are charged
                    # exactly once, then requeue the rest for free.
                    for fut, (_index, pool) in list(in_pool.items()):
                        if pool in broken and fut.done():
                            settle(fut, now, broken)
                    for pool in broken:
                        self.stats.pool_rebuilds += shared_pool.replace(pool)
                    release(broken)
                    continue

                # Deadline enforcement: any running task past its budget
                # wedges a worker we cannot reclaim individually — kill the
                # workers of its pool, charge the overdue tasks, resubmit
                # the innocent.
                if policy.deadline_seconds is not None:
                    doomed: Set[ProcessPoolExecutor] = set()
                    for fut, (index, pool) in list(in_pool.items()):
                        started = running_since.get(index)
                        if started is None or now - started <= policy.deadline_seconds:
                            continue
                        del in_pool[fut]
                        del running_since[index]
                        doomed.add(pool)
                        self.stats.deadline_kills += 1
                        fail_or_retry(
                            index,
                            "DeadlineExceeded: cell exceeded its "
                            f"{policy.deadline_seconds:g}s wall-clock budget",
                            ERROR_DEADLINE,
                            now - started,
                        )
                    kill(doomed)
        except BaseException:
            # Interrupt (SIGINT/SIGTERM) or internal error: abandon
            # in-flight work immediately so the process can exit and the
            # journal (flushed per-entry by the caller) stays resumable.
            kill({pool for _, pool in in_pool.values()})
            raise
        assert all(out is not None for out in self.outcomes)
        return [out for out in self.outcomes if out is not None]


def supervised_map(
    fn: Callable,
    tasks: Sequence[Any],
    workers: int,
    policy: Optional[SupervisorPolicy] = None,
    stats: Optional[SupervisorStats] = None,
    progress: Optional[ProgressFn] = None,
    label_of: Optional[Callable[[Any], str]] = None,
    describe_task: Optional[DescribeFn] = None,
    on_outcome: Optional[OnOutcomeFn] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> Tuple[List[TaskOutcome], str]:
    """Run ``fn`` over ``tasks`` under supervision, preserving order.

    Returns ``(outcomes, mode)`` with one :class:`TaskOutcome` per task
    in task order; ``mode`` is ``"parallel"`` or ``"serial"`` (the
    serial path is taken in-process for ``workers <= 1`` or a single
    task — no pool, but the same retry/poison policy). ``on_outcome``
    fires once per task as its fate is sealed, in completion order —
    the journal layer hooks it to persist each cell.

    The parallel path submits ``traced_call(fn, task)`` to
    :data:`shared_pool`, sized ``workers``; the pool outlives the call.
    ``fn`` and each task must be picklable and carry all the state the
    task needs: pool workers are shared by every campaign in this
    process.

    ``should_abort`` (thread-safe, cheap) is polled at dispatch
    boundaries; once true, no further task is started, in-flight
    workers are killed, and every unfinished task is sealed with an
    :data:`ERROR_ABORTED` outcome — the cooperative-cancellation hook
    the job server's cancel/drain/deadline paths use.
    """
    sup = _Supervisor(
        fn,
        tasks,
        workers,
        policy or SupervisorPolicy(),
        stats if stats is not None else SupervisorStats(),
        progress,
        label_of or (lambda task: str(task)),
        describe_task,
        on_outcome,
        should_abort=should_abort,
    )
    if workers <= 1 or len(tasks) <= 1:
        return sup.run_serial(), "serial"
    return sup.run_parallel(), "parallel"
