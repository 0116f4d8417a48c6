"""``repro.supervisor`` — a crash-tolerant process-pool supervisor.

PR 1 taught the *simulated* hardware to survive drops, hangs and
bit-flips (timeouts, bounded backoff, watchdogs, quarantine). This
module applies the same vocabulary to the *host-side* pool that runs
the experiment campaigns, so one OOM-killed or wedged worker never
poisons an entire sweep:

* **Worker-crash containment** — a dead worker breaks a
  :class:`~concurrent.futures.ProcessPoolExecutor` for every pending
  future. The supervisor detects the broken pool, rebuilds it, charges
  a failed *attempt* only to the tasks that were actually running on
  the dead worker, and resubmits everything else untouched.
* **Failure taxonomy** — worker-side exceptions are classified as
  ``transient`` (:class:`~repro.errors.TransientCellError`, retried
  with bounded exponential backoff), ``crash`` / ``deadline``
  (retried on a rebuilt pool), or ``deterministic``. A task failing
  with the *same* deterministic error twice is quarantined as
  **poison**: no further retries, and a serialized repro bundle
  (task parameters + traceback) is written under
  ``<quarantine_dir>/`` for offline replay via
  ``border-control replay-cell``.
* **Deadlines** — with ``deadline_seconds`` set, a task that holds a
  worker past its wall-clock budget gets the whole pool's workers
  killed and rebuilt (a single worker of a pool cannot be killed in
  isolation); only the overdue tasks are charged an attempt.
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
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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
    "SupervisorPolicy",
    "SupervisorStats",
    "TaskOutcome",
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

    def merge(self, other: "SupervisorStats") -> None:
        self.retries += other.retries
        self.pool_rebuilds += other.pool_rebuilds
        self.poison_cells += other.poison_cells
        self.deadline_kills += other.deadline_kills
        self.resumed_cells += other.resumed_cells


class TaskOutcome(NamedTuple):
    """Final fate of one task after supervision."""

    value: Any
    error: Optional[str]
    wall_seconds: float
    attempts: int = 1
    error_kind: Optional[str] = None
    resumed: bool = False

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
    (sweeps): their ``cell_fn`` returns ``(result, cache_hit)``, and a
    cell it rejects is a trace cell — journaled without a result, never
    resumed and never sent to the fleet.
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


class _TaskState:
    """Mutable supervision bookkeeping for one task."""

    __slots__ = ("index", "attempts", "identical_failures", "last_error", "free_rides")

    def __init__(self, index: int) -> None:
        self.index = index
        self.attempts = 0  # completed (failed) executions so far
        self.identical_failures = 0
        self.last_error: Optional[str] = None
        # Pool breaks survived without being observed running. Queued
        # siblings of a dead worker legitimately ride a break or two for
        # free; a task that keeps riding is itself a crasher that dies
        # faster than the running-state sampler can see it.
        self.free_rides = 0


def _first_line(error: str) -> str:
    return error.splitlines()[0] if error else error


class _Supervisor:
    """One supervised fan-out: pool lifecycle + retry/deadline loop."""

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
        initializer: Optional[Callable],
        initargs: Tuple,
        serial_setup: Optional[Callable[[], None]] = None,
        serial_teardown: Optional[Callable[[], None]] = None,
        should_abort: Optional[Callable[[], bool]] = None,
        pool_factory: Optional[Callable[..., ProcessPoolExecutor]] = None,
    ) -> None:
        self.fn = fn
        self.tasks = tasks
        self.workers = workers
        self.policy = policy
        self.stats = stats
        self.progress = progress
        self.label_of = label_of
        self.describe_task = describe_task
        self.on_outcome = on_outcome
        self.initializer = initializer
        self.initargs = initargs
        self.serial_setup = serial_setup
        self.serial_teardown = serial_teardown
        self.should_abort = should_abort
        self.pool_factory = pool_factory
        self.outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        self.states = [_TaskState(i) for i in range(len(tasks))]
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

    def _classify_failure(
        self, state: _TaskState, error: str, kind: str, wall: float
    ) -> Optional[float]:
        """Account one failed execution.

        Returns the backoff delay before the next attempt, or ``None``
        when the task is out of budget (the caller finalizes it).
        Poison detection happens here: a deterministic failure whose
        first line matches the previous one counts toward
        ``max_identical_failures``.
        """
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

    # -- serial path -------------------------------------------------------

    def run_serial(self) -> List[TaskOutcome]:
        # The in-process path never runs the pool ``initializer`` (there
        # is no worker to initialize); callers whose tasks need ambient
        # state — the sweep layer's installed grid context — provide a
        # ``serial_setup`` mirroring the worker-side install, without the
        # initializer's environment mutations leaking into this process.
        if self.serial_setup is not None:
            self.serial_setup()
        try:
            for i, task in enumerate(self.tasks):
                if self._aborted():
                    break
                state = self.states[i]
                while True:
                    value, error, wall, kind = traced_call(self.fn, task)
                    if error is None:
                        self._finalize(i, TaskOutcome(value, None, wall, state.attempts + 1))
                        break
                    delay = self._classify_failure(state, error, kind or ERROR_DETERMINISTIC, wall)
                    if delay is None:
                        self._finalize(
                            i,
                            TaskOutcome(
                                None, state.last_error, wall, state.attempts, kind
                            ),
                        )
                        break
                    if delay > 0:
                        time.sleep(delay)
                    if self._aborted():
                        break
            self._finalize_aborted()
        finally:
            if self.serial_teardown is not None:
                self.serial_teardown()
        return [out for out in self.outcomes if out is not None]

    # -- parallel path -----------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        factory = self.pool_factory or ProcessPoolExecutor
        return factory(
            max_workers=min(self.workers, len(self.tasks)),
            initializer=self.initializer,
            initargs=self.initargs,
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*, without waiting on in-flight work.

        ``ProcessPoolExecutor`` has no per-worker kill, so deadline
        enforcement (and abandonment on interrupt) kills every worker
        process; the supervisor then rebuilds and resubmits.
        """
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.kill()
            except (OSError, ValueError):  # already gone
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def run_parallel(self) -> List[TaskOutcome]:
        policy = self.policy
        pool = self._new_pool()
        in_pool: Dict[Future, int] = {}
        running_since: Dict[int, float] = {}
        # (due monotonic time, index) — tasks waiting out a retry backoff.
        delayed: List[Tuple[float, int]] = []
        to_submit: "deque[int]" = deque(range(len(self.tasks)))

        def submit(index: int) -> None:
            fut = pool.submit(traced_call, self.fn, self.tasks[index])
            in_pool[fut] = index

        def rebuild_pool() -> None:
            nonlocal pool
            self._kill_pool(pool)
            self.stats.pool_rebuilds += 1
            pool = self._new_pool()
            # Everything that was in the old pool (and didn't get charged
            # an attempt by the caller) goes back to the submit queue.
            for index in in_pool.values():
                running_since.pop(index, None)
                to_submit.append(index)
            in_pool.clear()

        def fail_or_retry(index: int, error: str, kind: str, wall: float) -> None:
            state = self.states[index]
            delay = self._classify_failure(state, error, kind, wall)
            if delay is None:
                self._finalize(
                    index, TaskOutcome(None, state.last_error, wall, state.attempts, kind)
                )
            elif delay > 0:
                delayed.append((time.monotonic() + delay, index))
            else:
                to_submit.append(index)

        def crash_or_ride(
            index: int, exc: BaseException, was_running: bool, wall: float
        ) -> None:
            """Charge a broken-pool victim, or resubmit it for free.

            Only tasks observed running on the dead worker are charged an
            attempt — queued siblings ride the rebuild untouched. The
            ``free_rides`` bound keeps a crasher that dies between
            running-state samples from riding rebuilds forever.
            """
            state = self.states[index]
            if was_running or state.free_rides >= 3:
                fail_or_retry(
                    index,
                    f"{type(exc).__name__}: worker process died "
                    f"mid-cell ({exc})",
                    ERROR_CRASH,
                    wall,
                )
            else:
                state.free_rides += 1
                to_submit.append(index)

        try:
            while self.done_count < len(self.tasks):
                if self._aborted():
                    # Cooperative cancellation observed at the poll
                    # boundary: kill in-flight workers now (their cells
                    # are charged as aborted, not crashed) and seal
                    # everything unfinished.
                    self._kill_pool(pool)
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
                for fut, index in in_pool.items():
                    if index not in running_since and fut.running():
                        running_since[index] = now

                pool_broken = False
                for fut in finished:
                    index = in_pool.pop(fut)
                    was_running = index in running_since
                    started = running_since.pop(index, now)
                    try:
                        value, error, wall, kind = fut.result()
                    except BrokenProcessPool as exc:
                        # This future's worker died (OOM kill, SIGKILL...).
                        pool_broken = True
                        crash_or_ride(index, exc, was_running, now - started)
                        continue
                    except Exception as exc:  # pool plumbing failure
                        fail_or_retry(
                            index,
                            f"{type(exc).__name__}: {exc}",
                            ERROR_CRASH,
                            now - started,
                        )
                        continue
                    if error is None:
                        self._finalize(
                            index,
                            TaskOutcome(
                                value, None, wall, self.states[index].attempts + 1
                            ),
                        )
                    else:
                        fail_or_retry(index, error, kind or ERROR_DETERMINISTIC, wall)

                if pool_broken:
                    # The executor fails every sibling future when a worker
                    # dies; drain the already-done ones here so running
                    # victims are charged exactly one attempt and queued
                    # ones ride the rebuild for free.
                    for fut in [f for f in list(in_pool) if f.done()]:
                        index = in_pool.pop(fut)
                        was_running = index in running_since
                        started = running_since.pop(index, now)
                        try:
                            value, error, wall, kind = fut.result()
                        except BrokenProcessPool as exc:
                            crash_or_ride(index, exc, was_running, now - started)
                        except Exception:
                            to_submit.append(index)
                        else:  # landed just before the pool broke
                            if error is None:
                                self._finalize(
                                    index,
                                    TaskOutcome(
                                        value,
                                        None,
                                        wall,
                                        self.states[index].attempts + 1,
                                    ),
                                )
                            else:
                                fail_or_retry(
                                    index, error, kind or ERROR_DETERMINISTIC, wall
                                )
                    rebuild_pool()
                    continue

                # Deadline enforcement: any running task past its budget
                # wedges a worker we cannot reclaim individually — kill the
                # workers, charge the overdue tasks, resubmit the innocent.
                if policy.deadline_seconds is not None:
                    overdue = [
                        index
                        for index, started in running_since.items()
                        if now - started > policy.deadline_seconds
                    ]
                    if overdue:
                        for fut in [f for f, i in in_pool.items() if i in set(overdue)]:
                            index = in_pool.pop(fut)
                            started = running_since.pop(index)
                            self.stats.deadline_kills += 1
                            fail_or_retry(
                                index,
                                "DeadlineExceeded: cell exceeded its "
                                f"{policy.deadline_seconds:g}s wall-clock budget",
                                ERROR_DEADLINE,
                                now - started,
                            )
                        rebuild_pool()
        except BaseException:
            # Interrupt (SIGINT/SIGTERM) or internal error: abandon
            # in-flight work immediately so the process can exit and the
            # journal (flushed per-entry by the caller) stays resumable.
            self._kill_pool(pool)
            raise
        else:
            pool.shutdown(wait=True)
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
    initializer: Optional[Callable] = None,
    initargs: Tuple = (),
    serial_setup: Optional[Callable[[], None]] = None,
    serial_teardown: Optional[Callable[[], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    pool_factory: Optional[Callable[..., ProcessPoolExecutor]] = None,
) -> Tuple[List[TaskOutcome], str]:
    """Run ``fn`` over ``tasks`` under supervision, preserving order.

    Returns ``(outcomes, mode)`` with one :class:`TaskOutcome` per task
    in task order; ``mode`` is ``"parallel"`` or ``"serial"`` (the
    serial path is taken in-process for ``workers <= 1`` or a single
    task — no pool, but the same retry/poison policy). ``on_outcome``
    fires once per task as its fate is sealed, in completion order —
    the journal layer hooks it to persist each cell.

    ``initializer(*initargs)`` runs once per spawned worker process —
    including the workers of every *rebuilt* pool, which is how
    worker-side state (cache pinning, shipped task context, the owner
    watch) survives crash containment. The serial path never spawns
    workers, so it never runs the initializer; ``serial_setup`` /
    ``serial_teardown`` bracket the in-process loop for callers whose
    task function needs the same ambient state there.

    ``should_abort`` (thread-safe, cheap) is polled at dispatch
    boundaries; once true, no further task is started, in-flight
    workers are killed, and every unfinished task is sealed with an
    :data:`ERROR_ABORTED` outcome — the cooperative-cancellation hook
    the job server's cancel/drain/deadline paths use.

    ``pool_factory`` swaps the executor backend: it is called with the
    same keyword arguments as :class:`ProcessPoolExecutor`
    (``max_workers``, ``initializer``, ``initargs``) for the initial
    pool *and every rebuilt one* — which is why it is a factory, not an
    executor instance. Fleet workers use it to bound their local pool
    and tests use it to inject failing pools.
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
        initializer,
        initargs,
        serial_setup=serial_setup,
        serial_teardown=serial_teardown,
        should_abort=should_abort,
        pool_factory=pool_factory,
    )
    if workers <= 1 or len(tasks) <= 1:
        return sup.run_serial(), "serial"
    return sup.run_parallel(), "parallel"
