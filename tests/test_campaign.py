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

The CLI checks at the end: SIGTERM on a serial campaign exits 130 with
a resume hint, and a failed cell exits 1 with one line per failure.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import sweep
from repro.cli import main
from repro.errors import SweepError
from repro.experiments import common
from repro.faults import FaultKind
from repro.journal import RunJournal, journal_dir
from repro.recovery import recovery_cell_key, recovery_grid, run_recovery_campaign
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import chaos_cell_key, chaos_grid, run_chaos_campaign
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
    if kind == "sweep":
        return cell.journal_key()
    return chaos_cell_key(cell) if kind == "chaos" else recovery_cell_key(cell)


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


def test_failed_cell_exits_1_with_one_line_per_failure(capsys):
    argv = ["chaos", "--quick", "--fault-types", "drop",
            "--workloads", "nope", "bfs", "--run-id", "failed"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"FAIL nope[drop]: {_unknown_workload_error()}\n" in err
    assert "Traceback" not in err
    assert "--resume failed" in err
