"""One contract for every campaign kind, serial or on a process pool.

Sweep, chaos and recovery campaigns all run through
:func:`repro.sweep.run_campaign`, so each must behave the same way with
``workers=1`` (in-process) and ``workers=2`` (a supervised pool):

* (a) the report and its signature do not depend on the worker count;
* (b) when the grid's *first* cell names an unknown workload, every
  other cell still runs, the bad cells are journaled ``ok: false``,
  each failure reads the same, and the survivors come back;
* (c) reopening the journal re-executes nothing and reproduces the
  signature, including from an entry written without the fields older
  runs did not journal (``attempts``, ``error_kind``, ``cache_hit``).

Chaos and recovery cells also run on an in-process fleet (one
coordinator, one 2-slot worker) through the same driver: (a) their
report equals the serial one, (b) a failing first cell reports the same
failures as on the pool, (c) a reopened journal re-executes nothing,
and a chaos or recovery service job runs on the server's fleet.

A sweep cell also fails the same way serially, on a 2-worker pool and
on an in-process fleet: the same ``attempts``, error kind, first error
line and poison note per cell, and the same retry and poison counts.

The CLI checks at the end: SIGTERM on a serial campaign exits 130 with
a resume hint, and a failed cell exits 1 with one line per failure.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import supervisor, sweep
from repro.chaos import ChaosReport, chaos_grid, run_chaos_campaign
from repro.cli import main
from repro.errors import SweepError, TransientCellError
from repro.experiments import common
from repro.faults import FaultKind
from repro.fleet import FleetCoordinator, FleetWorker
from repro.fleet import worker as fleet_worker
from repro.journal import RunJournal, journal_dir
from repro.recovery import RecoveryReport, recovery_grid, run_recovery_campaign
from repro.service.jobs import Job, JobSpec
from repro.service.scheduler import execute_job
from repro.sim.config import GPUThreading, SafetyMode
from repro.supervisor import shared_pool, traced_call
from repro.workloads.registry import get_workload

SCALE = 0.1
KINDS = ("sweep", "chaos", "recovery")
WORKERS = (1, 2)
CHAOS_KINDS = [FaultKind.DROP, FaultKind.DELAY]
SCENARIOS = ["rogue-write", "storm"]
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common.clear_cache()
    yield
    common.clear_cache()


def _cells(kind, workloads):
    """The kind's small grid over ``workloads``, in campaign order."""
    if kind == "sweep":
        return [
            sweep.Cell(workload, safety, GPUThreading.MODERATELY, ops_scale=SCALE)
            for workload in workloads
            for safety in (SafetyMode.ATS_ONLY, SafetyMode.BC_BCC)
        ]
    if kind == "chaos":
        return chaos_grid(workloads, CHAOS_KINDS, ops_scale=SCALE)
    return recovery_grid(workloads, SCENARIOS, seed=17, ops_scale=SCALE)


def _run(kind, workers, workloads=("bfs",), journal=None):
    """Run the kind's grid through its public entry point."""
    if kind == "sweep":
        cells = _cells(kind, workloads)
        return sweep.run_sweep(cells, workers=workers, journal=journal)
    if kind == "chaos":
        return run_chaos_campaign(
            list(workloads), CHAOS_KINDS, ops_scale=SCALE,
            workers=workers, journal=journal,
        )
    return run_recovery_campaign(
        list(workloads), SCENARIOS, seed=17, ops_scale=SCALE,
        workers=workers, journal=journal,
    )


def _signature(kind, report):
    if kind == "sweep":
        return [(out.cell.label, out.result) for out in report.outcomes]
    return report.signature()


def _key(kind, cell):
    return sweep.campaign_kind(kind).journal_key(cell)


def _label(kind, cell):
    if kind == "sweep":
        return cell.label
    if kind == "chaos":
        return f"{cell['workload']}[{'+'.join(k.value for k in cell['kinds'])}]"
    return f"{cell['workload']}[{cell['scenario']}]"


def _unknown_workload_error(name: str = "nope") -> str:
    with pytest.raises(KeyError) as info:
        get_workload(name)
    return f"KeyError: {info.value}"


@pytest.mark.parametrize("kind", KINDS)
def test_report_identical_across_worker_counts(kind):
    serial = _run(kind, workers=1)
    common.clear_cache(disk=True)  # the pool must recompute, not read the cache
    pooled = _run(kind, workers=2)
    assert serial.ok and pooled.ok
    assert _signature(kind, pooled) == _signature(kind, serial)
    if kind == "sweep":
        assert (serial.mode, pooled.mode) == ("serial", "parallel")
    else:
        assert pooled.to_dict() == serial.to_dict()
    if kind == "recovery":
        assert [run.outcome for run in serial.runs] == ["retried", "killed"]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("kind", KINDS)
def test_failing_first_cell_is_journaled_and_survivors_return(kind, workers):
    bad, good = _cells(kind, ["nope"]), _cells(kind, ["bfs"])
    with RunJournal.create(f"fail-{kind}-{workers}") as journal:
        if kind == "sweep":
            report = _run(kind, workers, ["nope", "bfs"], journal)
            failures = report.failures()
            survivors = report.partial_results()
        else:
            with pytest.raises(SweepError) as info:
                _run(kind, workers, ["nope", "bfs"], journal)
            failures = info.value.failures
            survivors = [
                (out.cell, out.result) for out in info.value.outcomes if out.ok
            ]
        entries = journal.entries()

    unknown = _unknown_workload_error()
    assert [failure.splitlines()[0] for failure in failures] == [
        f"{_label(kind, cell)}: {unknown}" for cell in bad
    ]
    assert [_label(kind, cell) for cell, _ in survivors] == [
        _label(kind, cell) for cell in good
    ]
    assert all(result is not None for _, result in survivors)
    assert [entries[_key(kind, cell)]["ok"] for cell in bad + good] == (
        [False] * len(bad) + [True] * len(good)
    )


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("kind", KINDS)
def test_reopened_journal_reexecutes_nothing(kind, workers):
    run_id = f"resume-{kind}-{workers}"
    with RunJournal.create(run_id) as journal:
        first = _run(kind, workers, journal=journal)
        # Re-journal the first cell the way older runs wrote entries.
        key = _key(kind, _cells(kind, ["bfs"])[0])
        old = {
            name: value
            for name, value in journal.lookup(key).items()
            if name not in ("key", "attempts", "error_kind", "cache_hit")
        }
        journal.record(key, old)

    path = journal_dir() / f"{run_id}.jsonl"
    size = path.stat().st_size
    common.clear_cache(disk=True)  # the journal, not the cache, rehydrates
    with RunJournal.open(run_id) as journal:
        resumed = _run(kind, workers, journal=journal)
    assert path.stat().st_size == size  # no cell ran, so none was journaled
    assert _signature(kind, resumed) == _signature(kind, first)
    if kind == "sweep":
        assert resumed.resumed_cells == len(resumed.outcomes)


def _quick_grid(kind):
    """The kind's whole ``--quick`` grid, as the CLI builds it."""
    if kind == "sweep":
        return sweep.grid_union(["all"], ops_scale=0.25)[1]
    return (chaos_grid if kind == "chaos" else recovery_grid)(quick=True)


@pytest.mark.parametrize("kind", KINDS)
def test_recipes_rebuild_their_cells(kind):
    """``cell_of`` inverts ``recipe_of`` through JSON, as bundles and the
    fleet wire carry it: the same recipe and the same journal key."""
    campaign = sweep.campaign_kind(kind)
    cells = _quick_grid(kind)
    assert cells
    for cell in cells:
        recipe = campaign.recipe_of(cell)
        rebuilt = campaign.cell_of(json.loads(json.dumps(recipe)))
        assert campaign.recipe_of(rebuilt) == recipe
        assert campaign.journal_key(rebuilt) == campaign.journal_key(cell)


# ---------------------------------------------------------------------------
# chaos and recovery on the fleet
# ---------------------------------------------------------------------------

FLEET_KINDS = ("chaos", "recovery")


@contextlib.contextmanager
def _fleet():
    """An in-process coordinator with one connected 2-slot worker."""
    with FleetCoordinator(heartbeat_seconds=0.1, wait_seconds=10.0) as coord:
        worker = FleetWorker(
            "127.0.0.1", coord.port, worker_id="w1", slots=2, reconnect_seconds=0.1
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            yield coord
        finally:
            coord.shutdown_fleet()
            thread.join(10.0)
    assert not thread.is_alive()


def _run_campaign(kind, workloads=("bfs",), journal=None, fleet=None):
    """The kind's grid through ``run_campaign`` on a 2-worker pool or ``fleet``."""
    return sweep.run_campaign(
        _cells(kind, workloads),
        sweep.campaign_kind(kind),
        workers=2,
        journal=journal,
        fleet=fleet,
    )


def _verdicts(kind, report):
    """A ``run_campaign`` report's runs as the kind's own report (the
    seeds ``_run`` gives the public entry points)."""
    if kind == "chaos":
        return ChaosReport(seed=1234, runs=report.results)
    return RecoveryReport(seed=17, runs=report.results)


@pytest.mark.parametrize("kind", FLEET_KINDS)
def test_fleet_report_equals_serial(kind):
    serial = _run(kind, workers=1)
    with _fleet() as coord:
        placed = _run_campaign(kind, fleet=coord)
    assert placed.mode == "fleet"
    assert placed.fleet["results"] == len(placed.outcomes)
    assert _verdicts(kind, placed).to_dict() == serial.to_dict()


@pytest.mark.parametrize("kind", FLEET_KINDS)
def test_fleet_reports_a_failing_first_cell_as_the_pool_does(kind):
    workloads = ["nope", "bfs"]
    pooled = _run_campaign(kind, workloads)
    with _fleet() as coord:
        placed = _run_campaign(kind, workloads, fleet=coord)
    assert (pooled.mode, placed.mode) == ("parallel", "fleet")
    assert [_fate(out) for out in placed.outcomes] == [
        _fate(out) for out in pooled.outcomes
    ]
    assert placed.failures()[0].splitlines()[0] == (
        f"{_label(kind, _cells(kind, ['nope'])[0])}: {_unknown_workload_error()}"
    )
    assert [out.ok for out in placed.outcomes] == (
        [False] * len(_cells(kind, ["nope"])) + [True] * len(_cells(kind, ["bfs"]))
    )


@pytest.mark.parametrize("kind", FLEET_KINDS)
def test_fleet_run_reopened_journal_reexecutes_nothing(kind):
    run_id = f"fleet-resume-{kind}"
    with _fleet() as coord:
        with RunJournal.create(run_id) as journal:
            first = _run_campaign(kind, journal=journal, fleet=coord)
        assert first.mode == "fleet"
        path = journal_dir() / f"{run_id}.jsonl"
        size = path.stat().st_size
        with RunJournal.open(run_id) as journal:
            resumed = _run_campaign(kind, journal=journal, fleet=coord)
    assert path.stat().st_size == size  # no cell ran, so none was journaled
    assert resumed.resumed_cells == len(resumed.outcomes)
    assert _verdicts(kind, resumed).signature() == _verdicts(kind, first).signature()


@pytest.mark.parametrize("kind", FLEET_KINDS)
def test_service_campaign_job_runs_on_the_servers_fleet(kind):
    """The job server hands its fleet to chaos and recovery jobs too."""
    grid = {"fault_types": ["drop"]} if kind == "chaos" else {"scenarios": ["hang"]}
    params = {"workloads": ["bfs"], "ops_scale": SCALE, **grid}
    job = Job(id=f"job-{kind}", tenant="t", spec=JobSpec(kind, params, workers=2))
    with _fleet() as coord:
        payload = execute_job(job, lambda: False, fleet=coord)
    assert (payload["mode"], payload["ok"]) == ("fleet", True)
    assert payload["fleet"]["results"] == len(payload["cells"]) == 1


# ---------------------------------------------------------------------------
# one failure policy on every placement
# ---------------------------------------------------------------------------

#: Names the directory where a ``flaky`` cell notes that it has failed once.
FLAKY_DIR = "CAMPAIGN_TEST_FLAKY_DIR"

#: ``(workload, tag)`` cells per grid, and the placements that run it. A
#: cell that SIGKILLs its pool process would kill the caller serially.
PLACEMENT_GRIDS = {
    "failing": (
        (("bfs", ""), ("nope", ""), ("bfs", "flaky")),
        ("serial", "pool", "fleet"),
    ),
    "crashing": ((("bfs", ""), ("bfs", "die")), ("pool", "fleet")),
}


def _raise_transient(task):
    raise TransientCellError("simulated flaky infrastructure")


def _misbehaving_call(fn, task):
    """``traced_call`` for cells tagged to misbehave: ``flaky`` raises a
    transient error on its first run; ``die`` SIGKILLs its pool process
    once it has been seen running, after every other cell finished."""
    tag = task[0].tag
    if tag == "die":
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    first_run = Path(os.environ[FLAKY_DIR]) / "failed-once"
    if tag == "flaky" and not first_run.exists():
        first_run.touch()
        return traced_call(_raise_transient, task)
    return traced_call(fn, task)


def _run_placed(placement, cells, flaky_dir):
    """One ``fresh`` sweep of ``cells`` serially, on a 2-worker pool, or
    on an in-process coordinator with one 2-slot worker."""
    flaky_dir.mkdir()
    os.environ[FLAKY_DIR] = str(flaky_dir)
    shared_pool.shutdown()  # fork pool processes that see this placement's dir
    if placement != "fleet":
        workers = 1 if placement == "serial" else 2
        return sweep.run_sweep(cells, workers=workers, fresh=True)
    with _fleet() as coord:
        return sweep.run_sweep(cells, workers=2, fresh=True, fleet=coord)


def _fate(out):
    """What the placement may not change about one cell's outcome."""
    lines = (out.error or "").splitlines()
    poison = [line for line in lines if line.startswith("[poison:")]
    return out.ok, out.attempts, out.error_kind, lines[:1], poison


@pytest.mark.parametrize("grid", sorted(PLACEMENT_GRIDS))
def test_a_cell_fails_the_same_way_on_every_placement(grid, tmp_path, monkeypatch):
    monkeypatch.setattr(supervisor, "traced_call", _misbehaving_call)
    monkeypatch.setattr(fleet_worker, "traced_call", _misbehaving_call)
    monkeypatch.setenv(FLAKY_DIR, "")
    spec, placements = PLACEMENT_GRIDS[grid]
    cells = [
        sweep.Cell(workload, SafetyMode.ATS_ONLY, GPUThreading.MODERATELY,
                   ops_scale=0.05, tag=tag)
        for workload, tag in spec
    ]
    reports = {
        placement: _run_placed(placement, cells, tmp_path / placement)
        for placement in placements
    }
    assert reports["pool"].mode == "parallel" and reports["fleet"].mode == "fleet"
    fates = {name: [_fate(out) for out in r.outcomes] for name, r in reports.items()}
    stats = {
        name: (r.stats.retries, r.stats.poison_cells) for name, r in reports.items()
    }
    expected = fates["pool"]
    assert all(fate == expected for fate in fates.values()), fates
    assert all(count == stats["pool"] for count in stats.values()), stats

    # The shared fate is the pool's documented one.
    assert [fate[:3] for fate in expected] == {
        "failing": [(True, 1, None), (False, 2, "deterministic"), (True, 2, None)],
        "crashing": [(True, 1, None), (False, 3, "crash")],
    }[grid]
    bundles = list((common._cache_dir() / "quarantine").glob("poison-*.json"))
    if grid == "failing":
        assert len(bundles) == 1 and stats["pool"] == (2, 1)
        assert expected[1][3:] == (
            [_unknown_workload_error()],
            [f"[poison: quarantined after 2 identical failures; "
             f"repro bundle: {bundles[0]}]"],
        )
    else:
        assert bundles == [] and stats["pool"] == (2, 0)
        assert "worker process died mid-cell" in expected[1][3][0]


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


def _entries(path: Path) -> int:
    """Complete journal entries on disk (a torn tail does not count)."""
    count = 0
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                count += "key" in json.loads(line)
            except ValueError:
                pass
    return count


@pytest.mark.parametrize("kind", ["chaos", "recovery"])
def test_sigterm_on_serial_campaign_exits_130_and_resumes(kind, tmp_path):
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache))
    command = [sys.executable, "-m", "repro.cli", kind, "--quick", "--workers", "1"]
    journal = cache / "journals" / "term.jsonl"
    grid = chaos_grid if kind == "chaos" else recovery_grid
    total = len(grid(quick=True))

    proc = subprocess.Popen(
        command + ["--run-id", "term"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    while _entries(journal) < 1 and proc.poll() is None:
        assert time.monotonic() < deadline, "no cell was ever journaled"
        time.sleep(0.01)
    proc.send_signal(signal.SIGTERM)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130, err
    assert "--resume term" in err
    assert _entries(journal) < total

    resumed = subprocess.run(
        command + ["--resume", "term"], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert resumed.returncode == 0, resumed.stderr
    # Each executed cell appends one entry: only the missing ones ran.
    assert _entries(journal) == total


@pytest.mark.parametrize("kind", FLEET_KINDS)
def test_replay_cell_reruns_a_campaign_bundle(kind, tmp_path, capsys):
    """A chaos or recovery bundle replays its cell in-process: ``--json``
    prints the run record and a healthy run exits 0; a bundle whose cell
    still fails raises its error."""
    campaign = sweep.campaign_kind(kind)
    good, bad = _cells(kind, ["bfs"])[0], _cells(kind, ["nope"])[0]
    paths = [
        supervisor.write_poison_bundle(
            tmp_path, cell, "OOMKilled (not reproducible in-process)", 3,
            describe_task=campaign.describe, label=campaign.label_of(cell),
        )
        for cell in (good, bad)
    ]
    assert main(["replay-cell", str(paths[0]), "--json"]) == 0
    out = capsys.readouterr()
    replayed = campaign.from_dict(json.loads(out.out))
    assert replayed.signature() == campaign.cell_fn(good).signature()
    assert replayed.ok
    assert "did not reproduce" in out.err
    with pytest.raises(KeyError, match="nope"):
        main(["replay-cell", str(paths[1]), "--json"])


def test_failed_cell_exits_1_with_one_line_per_failure(capsys):
    argv = ["chaos", "--quick", "--fault-types", "drop",
            "--workloads", "nope", "bfs", "--run-id", "failed"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"FAIL nope[drop]: {_unknown_workload_error()}\n" in err
    assert "Traceback" not in err
    assert "--resume failed" in err
