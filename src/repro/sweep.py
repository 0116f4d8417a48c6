"""``repro.sweep`` — the campaign driver, and sweeps of simulation cells.

Every paper figure, chaos campaign and recovery campaign is a grid of
independent *cells*, each a pure function of its parameters:

* :func:`run_campaign` — the one driver all campaign kinds share. A
  kind is plain data (:class:`repro.supervisor.CampaignKind`); the
  driver resumes journaled cells, journals each new one as it lands
  (:func:`journal_entry`), holds the journal's signal guard, places
  cells on a fleet when given one, and runs the rest through
  :func:`fan_out` — in-process for one worker, a supervised pool
  otherwise. A failing cell is reported alike for every worker count.
* :class:`Cell` — one declarative simulation point; a Fig. 6 cell
  also records its border trace, which is cached and journaled with
  the rest of its result.
* :func:`run_sweep` — :func:`run_campaign` over :class:`Cell` grids,
  publishing the results to the shared disk cache. Results are
  **bit-identical** to serial execution: workers run the same
  deterministic ``run_single`` and ship the ``RunResult`` back whole.
  Cells run on the host's one long-lived pool
  (:data:`repro.supervisor.shared_pool`): each task carries its cell
  and the parent's resolved cache dir, and a per-task prologue
  (:func:`_pin_worker`) pins the worker to that dir. Workers keep no
  ``System`` between cells: every cell builds a fresh one, on a pool
  worker exactly as in-process. A worker exits when the process that
  owns its pool dies.
* :func:`grid_results` — a figure as one campaign: the figure drivers
  (:mod:`repro.experiments.fig4` … ``fig7``, ``workload_table``) each
  build a ``grid(...)`` of cells and read every result from one
  :func:`run_sweep`, whatever the worker count or journal.
* **Checkpoint/resume** — with a :class:`repro.journal.RunJournal`,
  a later run rehydrates completed cells instead of recomputing them
  (``--resume <run-id>``); SIGINT/SIGTERM unwind cleanly, so an
  interrupted run is always resumable.
* :func:`verify_identical` — re-run a grid serially with every cache
  bypassed and field-compare against the parallel results.
* :class:`SweepReport` / :func:`write_bench` — per-cell outcomes and
  perf accounting (sims/minute, speedup, cache hit rate, supervisor
  recovery counters), and the atomically written ``BENCH_sweep.json``
  snapshot the CI trajectory tracks.

Cache-hit accounting is the provenance fact returned by
:func:`repro.experiments.common.load_or_run` — never a separate
file-existence probe, which races against concurrent publishers of the
atomic disk cache.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import JobCancelled, SweepError
from repro.experiments import common
from repro.faults.plan import derive_seed
from repro.journal import RunJournal

if TYPE_CHECKING:  # repro.fleet imports this module; no runtime cycle
    from repro.fleet import FleetCoordinator
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import RunResult, run_single
from repro.supervisor import (
    ERROR_ABORTED,
    CampaignKind,
    SupervisorPolicy,
    SupervisorStats,
    TaskOutcome,
    supervised_map,
)

__all__ = [
    "BENCH_SCHEMA",
    "Cell",
    "CellOutcome",
    "GRID_NAMES",
    "SWEEP_CAMPAIGN",
    "SupervisorPolicy",
    "SupervisorStats",
    "SweepReport",
    "campaign_kind",
    "dedup_cells",
    "fan_out",
    "grid_cells",
    "grid_results",
    "grid_union",
    "journal_entry",
    "parallel_measurement_validity",
    "resolve_workers",
    "run_campaign",
    "run_sweep",
    "verify_identical",
    "write_bench",
]

BENCH_SCHEMA = "repro-sweep-bench-v3"

#: Grids :func:`grid_cells` knows how to build. Chaos and recovery
#: campaigns build their own grids and run them through the same
#: :func:`run_campaign`.
GRID_NAMES = ("fig4", "fig5", "fig6", "fig7", "workloads")

ProgressFn = Callable[[int, int, str, Optional[str]], None]


@dataclass(frozen=True)
class Cell:
    """One deterministic simulation point of a sweep grid."""

    workload: str
    safety: SafetyMode
    threading: GPUThreading = GPUThreading.HIGHLY
    seed: int = 1234
    ops_scale: float = 1.0
    downgrade_interval_cycles: Optional[float] = None
    record_border: bool = False
    tag: str = ""

    @property
    def label(self) -> str:
        parts = [self.workload, self.safety.value, self.threading.value]
        if self.downgrade_interval_cycles is not None:
            parts.append(f"dgi={self.downgrade_interval_cycles:g}")
        if self.record_border:
            parts.append("trace")
        if self.tag:
            parts.insert(0, self.tag)
        return "/".join(parts)

    def key(self) -> str:
        """The result-cache key, which is also the run-journal key."""
        return common.cache_key(
            self.workload,
            self.safety,
            self.threading,
            seed=self.seed,
            ops_scale=self.ops_scale,
            downgrade_interval_cycles=self.downgrade_interval_cycles,
            record_border=self.record_border,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable parameters, for repro bundles and journals."""
        return {
            "workload": self.workload,
            "safety": self.safety.value,
            "threading": self.threading.value,
            "seed": self.seed,
            "ops_scale": self.ops_scale,
            "downgrade_interval_cycles": self.downgrade_interval_cycles,
            "record_border": self.record_border,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Cell":
        data = dict(data)
        data["safety"] = SafetyMode(data["safety"])
        data["threading"] = GPUThreading(data["threading"])
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class CellOutcome:
    """What happened to one campaign cell: its result or a formatted failure.

    ``cell`` is a sweep :class:`Cell` or a chaos/recovery grid dict, and
    ``result`` that kind's result object (``RunResult``,
    ``ChaosRunResult`` or ``RecoveryRunResult``). ``label`` defaults to
    the sweep cell's own.
    """

    cell: Any
    result: Any
    error: Optional[str]
    wall_seconds: float
    cache_hit: bool
    attempts: int = 1
    error_kind: Optional[str] = None
    resumed: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = self.cell.label

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepReport:
    """One campaign's outcomes, in grid order, plus its perf accounting.

    :func:`run_campaign` returns it for every campaign kind; the cache
    and rendering helpers (``cache_hit_rate``, ``render``) are for
    sweeps of :class:`Cell` grids.
    """

    outcomes: List[CellOutcome]
    workers: int
    wall_seconds: float
    mode: str  # "parallel" | "serial" | "fleet"
    stats: SupervisorStats = field(default_factory=SupervisorStats)
    #: Coordinator counters when the run used a fleet (else ``None``).
    fleet: Optional[Dict[str, int]] = None

    @property
    def results(self) -> List[Any]:
        """Per-cell results in grid order (raises if any cell failed)."""
        self.raise_failures()
        return [out.result for out in self.outcomes]

    @property
    def ok(self) -> bool:
        return all(out.ok for out in self.outcomes)

    def failures(self) -> List[str]:
        return [f"{out.label}: {out.error}" for out in self.outcomes if not out.ok]

    def raise_failures(self) -> None:
        """:class:`~repro.errors.JobCancelled` if cells were aborted, else
        :class:`~repro.errors.SweepError` carrying every outcome."""
        if any(out.error_kind == ERROR_ABORTED for out in self.outcomes):
            raise JobCancelled("campaign aborted before every cell ran")
        if not self.ok:
            raise SweepError(self.failures(), outcomes=self.outcomes)

    def partial_results(self) -> List[Tuple[Cell, RunResult]]:
        """Every cell that *did* complete, in grid order.

        The graceful-degradation companion to :attr:`results`.
        """
        return [
            (out.cell, out.result)
            for out in self.outcomes
            if out.ok and out.result is not None
        ]

    @property
    def completion_rate(self) -> float:
        """Fraction of cells that completed successfully (1.0 == all)."""
        if not self.outcomes:
            return 1.0
        return sum(out.ok for out in self.outcomes) / len(self.outcomes)

    @property
    def resumed_cells(self) -> int:
        return sum(out.resumed for out in self.outcomes)

    @property
    def cell_seconds(self) -> float:
        """Summed per-cell compute time — the serial-cost estimate."""
        return sum(out.wall_seconds for out in self.outcomes)

    @property
    def cache_hit_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(out.cache_hit for out in self.outcomes) / len(self.outcomes)

    @property
    def sims_per_minute(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return 60.0 * len(self.outcomes) / self.wall_seconds

    @property
    def speedup_estimate(self) -> float:
        """Summed cell time / wall time (1.0 ≈ no parallel benefit)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.cell_seconds / self.wall_seconds

    def render(self) -> str:
        def cache_col(out: CellOutcome) -> str:
            if out.resumed:
                return "journal"
            return "hit" if out.cache_hit else "-"

        rows = [
            [
                out.label,
                f"{out.wall_seconds:.2f}s",
                cache_col(out),
                ("ok" if out.ok else "FAIL")
                + (f" (x{out.attempts})" if out.attempts > 1 else ""),
            ]
            for out in self.outcomes
        ]
        table = common.text_table(
            ["cell", "wall", "cache", "status"],
            rows,
            title=(
                f"sweep: {len(self.outcomes)} cells, {self.workers} worker(s) "
                f"[{self.mode}], {self.wall_seconds:.2f}s wall"
            ),
        )
        summary = (
            f"{self.sims_per_minute:.1f} sims/min, "
            f"{self.cache_hit_rate:.0%} cache hits, "
            f"estimated speedup {self.speedup_estimate:.2f}x, "
            f"completion {self.completion_rate:.0%}"
        )
        stats = self.stats.as_dict()
        stats["resumed_cells"] = max(stats["resumed_cells"], self.resumed_cells)
        supervisor = "supervisor: " + ", ".join(
            f"{name} {value}" for name, value in stats.items()
        )
        lines = [table, summary, supervisor]
        if self.fleet:
            interesting = (
                "workers_seen",
                "results",
                "expired_leases",
                "reassigned",
                "stolen",
                "duplicate_results",
                "foreign_results",
                "dead_workers",
            )
            lines.append(
                "fleet: "
                + ", ".join(
                    f"{name} {self.fleet.get(name, 0)}" for name in interesting
                )
            )
        # Surface recovery activity (epoch-fenced resets, retries, CPU
        # fallbacks) whenever any cell's RunResult recorded some — quiet
        # sweeps keep their old output.
        recovered = [
            out.result
            for out in self.outcomes
            if out.result is not None
            and (
                getattr(out.result, "recoveries_attempted", 0)
                or getattr(out.result, "fallback_executions", 0)
                or getattr(out.result, "stale_epoch_rejections", 0)
            )
        ]
        if recovered:
            lines.append(
                "recovery: "
                f"{sum(r.recoveries_attempted for r in recovered)} attempts, "
                f"{sum(r.recoveries_succeeded for r in recovered)} succeeded, "
                f"{sum(r.fallback_executions for r in recovered)} CPU fallbacks, "
                f"{sum(r.recovery_ticks for r in recovered)} recovery ticks, "
                f"{sum(r.stale_epoch_rejections for r in recovered)} "
                "stale-epoch rejections"
            )
        lines.extend(f"  FAIL {failure}" for failure in self.failures())
        return "\n".join(lines)


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` → one worker per core; floors at 1."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, workers)


# ---------------------------------------------------------------------------
# worker-side entry points (must be module-level: they cross the pickle
# boundary into pool processes)
# ---------------------------------------------------------------------------


def _pin_worker(cache_dir: Optional[str]) -> None:
    """The per-task prologue on a pool worker: cache pinning.

    The worker is pinned to the parent's *resolved* cache dir,
    unconditionally, so a worker with another working directory (or an
    environment inherited from the campaign that forked it) never
    caches somewhere else. ``None`` resolves the default here. Pool
    workers are shared by every campaign in the process, so this runs
    before every task rather than once per worker. (A cell never reads
    the in-process memo, so nothing an earlier task or ``fork`` left in
    it can change a hit.)
    """
    if cache_dir is None:
        cache_dir = str(Path(common._cache_dir()).resolve())
    os.environ["REPRO_CACHE_DIR"] = cache_dir


def _pinned(fn: Callable, cache_dir: str, task: Any) -> Any:
    """One pool task: :func:`_pin_worker`, then ``fn(task)``."""
    _pin_worker(cache_dir)
    return fn(task)


def _pin(fn: Callable) -> Callable:
    """``fn`` as a pool task pinned to this process's resolved cache dir."""
    return functools.partial(_pinned, fn, str(Path(common._cache_dir()).resolve()))


def _run_cell(task: Tuple[Cell, bool]) -> Tuple[RunResult, bool]:
    """Execute one ``(cell, fresh)`` task; returns ``(result, cache_hit)``.

    The hit flag is the provenance fact reported by
    :func:`repro.experiments.common.load_or_run` — *not* a separate
    existence probe of the cache file, which races against concurrent
    workers publishing the same key and misreports either way. A cell
    reads and fills the disk cache only, never the in-process memo, so
    no result outlives its campaign in memory.
    """
    cell, fresh = task
    if fresh:
        result = run_single(
            cell.workload,
            cell.safety,
            cell.threading,
            seed=cell.seed,
            ops_scale=cell.ops_scale,
            record_border=cell.record_border,
            downgrade_interval_cycles=cell.downgrade_interval_cycles,
        )
        return result, False
    result, source = common.load_or_run(
        cell.key(),
        lambda: common.run_single(
            cell.workload,
            cell.safety,
            cell.threading,
            seed=cell.seed,
            ops_scale=cell.ops_scale,
            record_border=cell.record_border,
            downgrade_interval_cycles=cell.downgrade_interval_cycles,
        ),
    )
    return result, source != "computed"


# ---------------------------------------------------------------------------
# the fan-out core
# ---------------------------------------------------------------------------


def fan_out(
    fn: Callable,
    tasks: Sequence[Any],
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    label_of: Optional[Callable[[Any], str]] = None,
    policy: Optional[SupervisorPolicy] = None,
    stats: Optional[SupervisorStats] = None,
    describe_task: Optional[Callable[[Any], Optional[Dict[str, Any]]]] = None,
    on_outcome: Optional[Callable[[int, TaskOutcome], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> Tuple[List[TaskOutcome], str]:
    """Run ``fn`` over ``tasks`` under :func:`repro.supervisor.supervised_map`.

    ``fn`` and every task must be picklable. Returns ``(outcomes,
    mode)``: one :class:`~repro.supervisor.TaskOutcome` per task, in
    task order, and ``"serial"`` (in-process, for ``workers <= 1`` or a
    single task) or ``"parallel"``. On the pool each task is ``fn``, the
    task and the parent's *resolved* cache dir, and runs
    :func:`_pin_worker` first; crash containment, retries and poison
    quarantine follow :mod:`repro.supervisor` under ``policy`` (which
    :func:`run_campaign` points at ``<cache-dir>/quarantine/`` for repro
    bundles). Either way every cell builds a fresh
    ``System``, and pool workers exit with their owner.
    ``progress(done, total, label, error)`` fires as each task's fate is
    sealed, in completion order.
    """
    workers = resolve_workers(workers)
    if workers > 1 and len(tasks) > 1:  # supervised_map's pool path
        fn = _pin(fn)
    return supervised_map(
        fn,
        tasks,
        workers,
        policy=policy,
        stats=stats,
        progress=progress,
        label_of=label_of,
        describe_task=describe_task,
        on_outcome=on_outcome,
        should_abort=should_abort,
    )


#: Sweeps as a campaign kind: :class:`Cell` grids on the result cache.
SWEEP_CAMPAIGN = CampaignKind(
    name="sweep",
    cell_fn=_run_cell,
    label_of=lambda cell: cell.label,
    recipe_of=Cell.to_dict,
    cell_of=Cell.from_dict,
    to_dict=common._result_to_dict,
    from_dict=common._result_from_dict,
    key_of=Cell.key,
    cached=True,
)


def campaign_kind(name: str) -> CampaignKind:
    """The campaign kind called ``name``: ``sweep``, ``chaos`` or ``recovery``.

    Poison bundles and the fleet's ASSIGN frames name a cell's kind;
    this turns the name back into the kind that decodes and runs it.
    """
    from repro.chaos import CHAOS_CAMPAIGN  # local: both import this module
    from repro.recovery import RECOVERY_CAMPAIGN

    for kind in (SWEEP_CAMPAIGN, CHAOS_CAMPAIGN, RECOVERY_CAMPAIGN):
        if kind.name == name:
            return kind
    raise ValueError(f"unknown campaign kind {name!r}")


def journal_entry(kind: CampaignKind, cell: Any, out: TaskOutcome) -> Dict[str, Any]:
    """The journal entry for one cell whose fate ``out`` sealed.

    Every campaign kind journals this shape and fleet workers shard it.
    Failures carry no result, so they never resume. Entries from older
    runs may lack ``attempts`` and ``error_kind``.
    """
    result, hit = kind.split(out.value)
    return {
        "label": kind.label_of(cell),
        "ok": out.ok,
        "error": out.error,
        "error_kind": out.error_kind,
        "wall_seconds": round(out.wall_seconds, 6),
        "attempts": out.attempts,
        "cacheable": kind.cached,
        "cache_hit": hit,
        "result": None if result is None else kind.to_dict(result),
    }


def run_campaign(
    cells: Sequence[Any],
    kind: CampaignKind,
    workers: Optional[int] = None,
    policy: Optional[SupervisorPolicy] = None,
    journal: Optional[RunJournal] = None,
    progress: Optional[ProgressFn] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    fresh: bool = False,
    fleet: Optional["FleetCoordinator"] = None,
) -> SweepReport:
    """Run one campaign's cells: the driver every campaign kind shares.

    Returns one outcome per cell in grid order. Failures are collected,
    not raised (:meth:`SweepReport.raise_failures` raises), so a failing
    cell is journaled and reported alike for every worker count while
    every other cell still runs. Cells run through :func:`fan_out`:
    in-process for ``workers <= 1``, on a supervised pool otherwise.
    Each runs as ``kind.cell_fn(kind.task(cell, fresh))``; ``fresh``
    bypasses the result cache of a cached kind.

    With a ``journal``: worker shards are merged first; retry jitter is
    seeded from the run id, so a resumed run replays identical delays;
    cells with a successful entry come back ``resumed`` without running
    (``fresh=True`` skips this scan); and each new cell is journaled as
    it lands, under the journal's signal guard, so SIGINT/SIGTERM unwind
    into a resumable run.

    ``fleet`` (a started :class:`repro.fleet.FleetCoordinator`) runs
    pending cells on remote workers first, journaling each result as it
    arrives; whatever the fleet could not place runs locally, under the
    same ``policy``: a cell fails the same way wherever it ran.
    ``should_abort`` stops dispatch cooperatively: unfinished cells come
    back as ``aborted`` failures, completed ones stay journaled.
    """
    start = time.perf_counter()
    stats = SupervisorStats()
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    policy = policy or SupervisorPolicy()  # one policy for the fleet and the pool
    if policy.quarantine_dir is None:
        policy = dataclasses.replace(
            policy, quarantine_dir=common._cache_dir() / "quarantine"
        )

    if journal is not None:
        try:
            journal.merge_shards()
        except OSError:  # shard dir unreadable — recompute instead
            pass
        if policy.jitter > 0 and policy.jitter_seed == 0:
            policy = dataclasses.replace(
                policy, jitter_seed=derive_seed(0, journal.run_id)
            )

    def outcome(i: int, result: Any, entry: Dict[str, Any], **extra: Any) -> None:
        outcomes[i] = CellOutcome(
            cells[i],
            result,
            entry.get("error"),
            float(entry.get("wall_seconds", 0.0)),
            attempts=int(entry.get("attempts", 1)),
            error_kind=entry.get("error_kind"),
            label=kind.label_of(cells[i]),
            **extra,
        )

    pending: List[int] = []
    for i, cell in enumerate(cells):
        entry = None
        if journal is not None and not fresh:
            entry = journal.completed(kind.journal_key(cell))
        if entry is not None and entry.get("result") is not None:
            result = kind.from_dict(entry["result"])
            outcome(i, result, entry, cache_hit=True, resumed=True)
            stats.resumed_cells += 1
        else:
            pending.append(i)

    mode = "serial"
    fleet_stats: Optional[Dict[str, int]] = None
    if fleet is not None and pending:
        fleet_cells = [cells[i] for i in pending]
        done_lock = threading.Lock()
        done_boxed = [len(cells) - len(pending)]

        def on_entry(local_index: int, entry: dict) -> None:
            # Runs on the coordinator thread as each RESULT lands:
            # journal immediately (record is thread-safe) so a killed
            # run resumes from everything the fleet finished.
            cell = fleet_cells[local_index]
            if journal is not None:
                journal.record(kind.journal_key(cell), entry)
            with done_lock:
                done_boxed[0] += 1
                done_now = done_boxed[0]
            if progress is not None:
                progress(done_now, len(cells), kind.label_of(cell), entry.get("error"))

        placed, leftovers = fleet.map_cells(
            fleet_cells,
            kind,
            fresh=fresh,
            run_id=journal.run_id if journal is not None else None,
            journal_dir=journal.path.parent if journal is not None else None,
            on_entry=on_entry,
            should_abort=should_abort,
            policy=policy,
            stats=stats,
        )
        for local_index, entry in placed.items():
            payload, hit = entry.get("result"), bool(entry.get("cache_hit"))
            result = None if payload is None else kind.from_dict(payload)
            outcome(pending[local_index], result, entry, cache_hit=hit)
        if placed:
            mode = "fleet"
        fleet_stats = fleet.stats_snapshot()
        pending = [pending[j] for j in sorted(leftovers)]

    if pending:
        task_cells = [cells[i] for i in pending]
        tasks = [kind.task(cell, fresh) for cell in task_cells]

        def cell_in(task: Any) -> Any:
            return task[0] if kind.cached else task

        def on_outcome(task_index: int, out: TaskOutcome) -> None:
            if journal is not None:
                cell = task_cells[task_index]
                journal.record(kind.journal_key(cell), journal_entry(kind, cell, out))

        guard = contextlib.nullcontext() if journal is None else journal.signal_guard()
        with guard:
            raw, local_mode = fan_out(
                kind.cell_fn,
                tasks,
                workers=workers,
                progress=progress,
                label_of=lambda task: kind.label_of(cell_in(task)),
                policy=policy,
                stats=stats,
                describe_task=lambda task: kind.describe(cell_in(task)),
                on_outcome=on_outcome,
                should_abort=should_abort,
            )
        if mode != "fleet":  # fleet placements outrank the local tail
            mode = local_mode
        for i, out in zip(pending, raw):
            result, hit = kind.split(out.value)
            # A TaskOutcome carries the same fields as a journal entry.
            outcome(i, result, out._asdict(), cache_hit=hit)
    return SweepReport(
        outcomes=[out for out in outcomes if out is not None],
        workers=resolve_workers(workers),
        wall_seconds=time.perf_counter() - start,
        mode=mode,
        stats=stats,
        fleet=fleet_stats,
    )


def run_sweep(
    cells: Sequence[Cell],
    workers: Optional[int] = None,
    fresh: bool = False,
    progress: Optional[ProgressFn] = None,
    policy: Optional[SupervisorPolicy] = None,
    journal: Optional[RunJournal] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    fleet: Optional["FleetCoordinator"] = None,
) -> SweepReport:
    """Run a :class:`Cell` grid through :func:`run_campaign`.

    Every result — computed, fleet-placed or resumed — is published to
    the shared disk cache, so a later run on this host hits it. None is
    kept in this process's memo: the report holds them for as long as
    its caller does. ``fresh=True`` bypasses every cache layer;
    :func:`verify_identical` uses it for an independent serial
    reference.
    """
    report = run_campaign(
        cells,
        SWEEP_CAMPAIGN,
        workers=workers,
        policy=policy,
        journal=journal,
        progress=progress,
        should_abort=should_abort,
        fresh=fresh,
        fleet=fleet,
    )
    if not fresh:
        for out in report.outcomes:
            if out.result is not None:
                common.publish_result(out.cell.key(), out.result)
    return report


def grid_results(
    cells: Sequence[Cell],
    workers: Optional[int] = None,
    journal: Optional[RunJournal] = None,
    allow_partial: bool = False,
) -> Dict[str, Optional[RunResult]]:
    """Run a figure's grid through :func:`run_sweep`; each result by cache key.

    This is the one way a figure driver gets its cells, for every worker
    count and with or without a journal, so a cell fails the same way
    however the figure ran. Raises :class:`~repro.errors.SweepError` if
    any cell failed — unless ``allow_partial``, in which case a failed
    cell's result is ``None`` and the driver renders it as a gap.
    """
    report = run_sweep(cells, workers=workers, journal=journal)
    if not allow_partial:
        report.raise_failures()
    return {out.cell.key(): out.result for out in report.outcomes}


# ---------------------------------------------------------------------------
# serial/parallel equivalence
# ---------------------------------------------------------------------------


def compare_results(a: RunResult, b: RunResult) -> List[str]:
    """Field-by-field differences between two results (empty == identical)."""
    diffs = []
    for fld in dataclasses.fields(RunResult):
        va, vb = getattr(a, fld.name), getattr(b, fld.name)
        if va != vb:
            diffs.append(f"{fld.name}: {va!r} != {vb!r}")
    return diffs


def verify_identical(
    cells: Sequence[Cell],
    parallel: SweepReport,
    progress: Optional[ProgressFn] = None,
) -> Tuple[SweepReport, List[str]]:
    """Prove a parallel sweep matches serial execution bit for bit.

    Recomputes every cell serially with all caches bypassed and
    field-compares against the parallel results. Returns the serial
    report (its ``wall_seconds`` is the honest serial baseline) and the
    list of mismatches (empty == identical). Resumed (journal-recovered)
    outcomes are compared exactly like freshly computed ones, so the
    identity proof covers the checkpoint/resume path too.
    """
    serial = run_sweep(cells, workers=1, fresh=True, progress=progress)
    mismatches: List[str] = []
    for cell, par_out, ser_out in zip(cells, parallel.outcomes, serial.outcomes):
        if par_out.result is None or ser_out.result is None:
            mismatches.append(
                f"{cell.label}: missing result "
                f"(parallel={par_out.error}, serial={ser_out.error})"
            )
            continue
        for diff in compare_results(par_out.result, ser_out.result):
            mismatches.append(f"{cell.label}: {diff}")
    return serial, mismatches


# ---------------------------------------------------------------------------
# grid definitions and the bench snapshot
# ---------------------------------------------------------------------------


def grid_cells(
    name: str,
    threading: Union[GPUThreading, str, None] = None,
    workloads: Optional[List[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
) -> List[Cell]:
    """Build a named figure grid (see :data:`GRID_NAMES`).

    ``threading`` narrows grids that sweep both GPU configurations;
    figure grids with a fixed configuration ignore it.
    """
    from repro.experiments import fig4, fig5, fig6, fig7, workload_table

    if isinstance(threading, str):
        threading = GPUThreading(threading)
    both = (GPUThreading.HIGHLY, GPUThreading.MODERATELY)
    threadings = both if threading is None else (threading,)
    kwargs = dict(workloads=workloads, seed=seed, ops_scale=ops_scale)
    if name == "fig4":
        cells: List[Cell] = []
        for thr in threadings:
            cells.extend(fig4.grid(thr, **kwargs))
        return cells
    if name == "fig5":
        return fig5.grid(threading or GPUThreading.HIGHLY, **kwargs)
    if name == "fig6":
        return fig6.grid(threading or GPUThreading.HIGHLY, **kwargs)
    if name == "fig7":
        return fig7.grid(**kwargs)
    if name == "workloads":
        return workload_table.grid(threading or GPUThreading.HIGHLY, **kwargs)
    raise ValueError(f"unknown grid {name!r} (expected one of {GRID_NAMES})")


def dedup_cells(cells: Sequence[Cell]) -> List[Cell]:
    """Drop cells whose cache key duplicates an earlier one.

    Figure grids overlap (fig4's BC-BCC cells are fig5's whole grid);
    when sweeping a union, running each key once is enough — every
    consumer reads the shared cache.
    """
    seen = set()
    unique: List[Cell] = []
    for cell in cells:
        key = cell.key()
        if key not in seen:
            seen.add(key)
            unique.append(cell)
    return unique


def grid_union(
    names: Sequence[str],
    threading: Union[GPUThreading, str, None] = None,
    workloads: Optional[List[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
) -> Tuple[List[str], List[Cell]]:
    """The grids ``names`` denotes (``"all"``: every one) and their cells, deduped."""
    grids = list(GRID_NAMES) if "all" in names else list(names)
    cells = [
        cell
        for name in grids
        for cell in grid_cells(name, threading, workloads, seed, ops_scale)
    ]
    return grids, dedup_cells(cells)


def parallel_measurement_validity(
    report: SweepReport, cpu_count: Optional[int] = None
) -> Tuple[bool, Optional[str]]:
    """Can this report honestly be labeled a *parallel speedup* measurement?

    Returns ``(valid, reason)`` with ``reason`` set when invalid. A run
    on a single CPU core, in serial mode, or with one worker measures
    scheduling overhead, not parallelism — a previous snapshot claimed
    a 2-worker "speedup" from a ``cpu_count: 1`` box, which this refuses
    to repeat.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if report.mode != "parallel":
        return False, f"serial mode ({report.workers} worker(s))"
    if report.workers < 2:
        return False, "fewer than 2 workers"
    if cpus < 2:
        return (
            False,
            f"only {cpus} CPU core available — {report.workers} workers "
            "time-slice one core, so wall-clock ratios measure scheduling, "
            "not parallelism",
        )
    if report.workers > cpus:
        return (
            False,
            f"{report.workers} workers oversubscribe {cpus} CPU cores",
        )
    return True, None


def write_bench(
    path: Union[str, Path],
    report: SweepReport,
    grids: Sequence[str],
    serial_wall_seconds: Optional[float] = None,
    verified_identical: Optional[bool] = None,
    warm_report: Optional["SweepReport"] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write the ``BENCH_sweep.json`` perf snapshot; returns the payload.

    ``speedup`` is measured (parallel vs. a real serial run) when
    ``serial_wall_seconds`` is given **and** the run qualifies as a
    parallel measurement (see :func:`parallel_measurement_validity`) —
    otherwise it is ``null`` with the refusal recorded in
    ``parallel_invalid_reason``. ``speedup_per_worker`` is the measured
    speedup normalized by worker count (1.0 == perfect scaling).

    ``warm_report`` is a repeat run of the same grid against the caches
    the first run populated; its wall time and hit rate land in the
    ``warm_*`` fields (``cold_wall_seconds`` is then the first run's).

    The file is published atomically (temp file + ``os.replace``) so a
    killed run never leaves a truncated snapshot. Schema:
    :data:`BENCH_SCHEMA`.
    """
    walls = sorted(out.wall_seconds for out in report.outcomes)
    cpus = os.cpu_count()
    parallel_valid, invalid_reason = parallel_measurement_validity(report, cpus)
    speedup = None
    if (
        parallel_valid
        and serial_wall_seconds is not None
        and report.wall_seconds > 0
    ):
        speedup = serial_wall_seconds / report.wall_seconds
    supervisor = report.stats.as_dict()
    supervisor["resumed_cells"] = max(
        supervisor["resumed_cells"], report.resumed_cells
    )
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "grids": list(grids),
        "cells": len(report.outcomes),
        "workers": report.workers,
        "cpu_count": cpus,
        "mode": report.mode,
        "parallel_measurement_valid": parallel_valid,
        "parallel_invalid_reason": invalid_reason,
        "wall_seconds": round(report.wall_seconds, 4),
        "cold_wall_seconds": round(report.wall_seconds, 4),
        "warm_wall_seconds": (
            None if warm_report is None else round(warm_report.wall_seconds, 4)
        ),
        "warm_cache_hit_rate": (
            None if warm_report is None else round(warm_report.cache_hit_rate, 4)
        ),
        "warm_speedup": (
            None
            if warm_report is None or warm_report.wall_seconds <= 0
            else round(report.wall_seconds / warm_report.wall_seconds, 3)
        ),
        "serial_wall_seconds": (
            None if serial_wall_seconds is None else round(serial_wall_seconds, 4)
        ),
        "speedup": None if speedup is None else round(speedup, 3),
        "speedup_per_worker": (
            None if speedup is None else round(speedup / report.workers, 3)
        ),
        "speedup_estimate": round(report.speedup_estimate, 3),
        "sims_per_minute": round(report.sims_per_minute, 2),
        "cache_hit_rate": round(report.cache_hit_rate, 4),
        "completion_rate": round(report.completion_rate, 4),
        "cell_seconds_total": round(report.cell_seconds, 4),
        "cell_seconds_max": round(walls[-1], 4) if walls else 0.0,
        "cell_seconds_median": round(walls[len(walls) // 2], 4) if walls else 0.0,
        "failures": report.failures(),
        "verified_identical": verified_identical,
        "supervisor": supervisor,
        "cells_detail": [
            {
                "label": out.label,
                "wall_seconds": round(out.wall_seconds, 4),
                "cache_hit": out.cache_hit,
                "ok": out.ok,
                "attempts": out.attempts,
                "resumed": out.resumed,
            }
            for out in report.outcomes
        ],
    }
    if extra:
        payload.update(extra)
    out_path = Path(path)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    common._write_atomic(out_path, json.dumps(payload, indent=2) + "\n")
    return payload
