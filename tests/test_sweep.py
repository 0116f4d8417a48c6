"""Tests for the parallel sweep layer and the repaired experiment cache.

Covers the concurrency bugs this layer depends on (atomic disk-cache
publication, corrupt-entry unlink races, memory-cache keying by cache
dir), serial/parallel bit-identity, the bench snapshot schema, and the
crash-tolerance story: supervised recovery from SIGKILL'd workers and
transient failures with results field-identical to serial execution,
journaled checkpoint/resume with zero recompute, graceful partial
degradation of the figure drivers, which run every grid as one campaign
whatever the worker count, and the pool workers' lifecycle: no
``System`` kept between cells, one pool shared by consecutive sweeps,
and no life after a SIGKILLed owner.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import supervisor, sweep
from repro.errors import SimulationIncompleteError, SweepError, TransientCellError
from repro.experiments import common, fig4, fig5, fig6, fig7
from repro.journal import RunJournal, journal_dir, list_runs
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.engine import Engine
from repro.sim.runner import run_single
from repro.sim.system import System
from repro.supervisor import SupervisorPolicy

BFS_ARGS = ("bfs", SafetyMode.ATS_ONLY, GPUThreading.MODERATELY)
SCALE = 0.05


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common.clear_cache()
    yield
    common.clear_cache()


def _bfs_cell(**overrides):
    params = dict(
        workload="bfs",
        safety=SafetyMode.ATS_ONLY,
        threading=GPUThreading.MODERATELY,
        ops_scale=SCALE,
    )
    params.update(overrides)
    return sweep.Cell(**params)


def _figure(name: str, workers: int):
    """One figure at ``SCALE``: the data its ``render()`` shows."""
    if name == "fig4":
        result = fig4.run(
            GPUThreading.MODERATELY, workloads=["bfs"], ops_scale=SCALE,
            workers=workers,
        )
        return result.overheads, result.baseline_cycles
    if name == "fig6":  # two workloads, so the pool gets two trace cells
        return fig6.run(
            workloads=["bfs", "nn"], threading=GPUThreading.MODERATELY,
            ops_scale=SCALE, workers=workers,
        ).miss_ratio
    return fig7.run(workloads=["bfs"], ops_scale=SCALE, workers=workers).cost_seconds


def _race_worker(cache_dir: str, queue) -> None:
    """Child-process body for the cache race tests."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    common._memory_cache.clear()
    try:
        result = common.cached_run(*BFS_ARGS, ops_scale=SCALE)
        queue.put(("ok", result.ticks))
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put(("error", f"{type(exc).__name__}: {exc}"))


class TestCacheConcurrency:
    def test_two_processes_racing_on_same_key(self, tmp_path):
        """Both racers must succeed and leave one valid, parseable entry."""
        cache_dir = str(tmp_path / "cache")
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_race_worker, args=(cache_dir, queue))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        outcomes = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
        assert all(status == "ok" for status, _ in outcomes), outcomes
        assert len({ticks for _, ticks in outcomes}) == 1  # deterministic
        key = common.cache_key(*BFS_ARGS, ops_scale=SCALE)
        entries = list((tmp_path / "cache").glob("*.json"))
        assert [p.stem for p in entries] == [key]
        data = json.loads(entries[0].read_text())  # complete, not truncated
        assert data["ticks"] == outcomes[0][1]

    def test_racers_recover_from_preplanted_corrupt_entry(self, tmp_path):
        """Two processes both detecting corruption must not trip each other."""
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir(parents=True)
        key = common.cache_key(*BFS_ARGS, ops_scale=SCALE)
        (cache_dir / f"{key}.json").write_text('{"ticks": 12')  # truncated
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_race_worker, args=(str(cache_dir), queue))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        outcomes = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
        assert all(status == "ok" for status, _ in outcomes), outcomes
        data = json.loads((cache_dir / f"{key}.json").read_text())
        assert data["ticks"] == outcomes[0][1]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        common.cached_run(*BFS_ARGS, ops_scale=SCALE)
        leftovers = list((tmp_path / "cache").glob("*.tmp"))
        assert leftovers == []

    def test_corrupt_entry_recomputed_and_rewritten(self, tmp_path):
        result = common.cached_run(*BFS_ARGS, ops_scale=SCALE)
        key = common.cache_key(*BFS_ARGS, ops_scale=SCALE)
        path = tmp_path / "cache" / f"{key}.json"
        path.write_text("not json at all")
        common._memory_cache.clear()
        again = common.cached_run(*BFS_ARGS, ops_scale=SCALE)
        assert again.ticks == result.ticks
        assert json.loads(path.read_text())["ticks"] == result.ticks

    def test_unlink_race_on_corrupt_entry_is_tolerated(self, tmp_path, monkeypatch):
        """A rival may unlink the corrupt entry first; we must not crash."""
        from pathlib import Path

        result = common.cached_run(*BFS_ARGS, ops_scale=SCALE)
        key = common.cache_key(*BFS_ARGS, ops_scale=SCALE)
        path = tmp_path / "cache" / f"{key}.json"
        path.write_text("garbage")
        common._memory_cache.clear()

        real_unlink = Path.unlink

        def rival_wins_the_unlink(self, *args, **kwargs):
            real_unlink(self)  # the rival removes the corrupt entry first...
            real_unlink(self)  # ...so our own unlink raises FileNotFoundError

        monkeypatch.setattr(Path, "unlink", rival_wins_the_unlink)
        # cached_run detects the corruption, loses the unlink race, and
        # must still recompute cleanly instead of propagating the error.
        again = common.cached_run(*BFS_ARGS, ops_scale=SCALE)
        monkeypatch.undo()
        assert again.ticks == result.ticks


class TestMemoryCacheKeying:
    def test_changing_cache_dir_invalidates_memoization(self, tmp_path, monkeypatch):
        a = common.cached_run(*BFS_ARGS, ops_scale=SCALE)
        key = common.cache_key(*BFS_ARGS, ops_scale=SCALE)
        other = tmp_path / "other-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(other))
        b = common.cached_run(*BFS_ARGS, ops_scale=SCALE)
        # Same parameters → same measurements, but freshly computed and
        # persisted under the *new* dir, not replayed from the old one.
        assert a is not b
        assert a.ticks == b.ticks
        assert (other / f"{key}.json").exists()

    def test_store_result_publishes_to_both_layers(self, tmp_path):
        result = run_single(*BFS_ARGS, ops_scale=SCALE)
        key = common.cache_key(*BFS_ARGS, ops_scale=SCALE)
        common.store_result(key, result)
        assert common.cached_run(*BFS_ARGS, ops_scale=SCALE) is result
        assert (tmp_path / "cache" / f"{key}.json").exists()


class TestSweepDeterminism:
    def test_parallel_results_identical_to_serial(self):
        cells = fig4.grid(GPUThreading.MODERATELY, workloads=["bfs"],
                          ops_scale=SCALE)
        parallel = sweep.run_sweep(cells, workers=2)
        assert parallel.ok and parallel.mode == "parallel"
        serial, mismatches = sweep.verify_identical(cells, parallel)
        assert mismatches == []
        for par_out, ser_out in zip(parallel.outcomes, serial.outcomes):
            assert dataclasses.asdict(par_out.result) == dataclasses.asdict(
                ser_out.result
            )

    @pytest.mark.parametrize("figure", ["fig4", "fig6", "fig7"])
    def test_figure_run_parallel_matches_serial(self, figure):
        par = _figure(figure, workers=2)
        common.clear_cache(disk=True)
        assert _figure(figure, workers=1) == par

    def test_sweep_populates_shared_cache(self):
        cells = [_bfs_cell()]
        report = sweep.run_sweep(cells, workers=2)
        assert report.cache_hit_rate == 0.0
        again = sweep.run_sweep(cells, workers=2)
        assert again.cache_hit_rate == 1.0
        assert again.outcomes[0].result.ticks == report.outcomes[0].result.ticks

    def test_fig6_repeat_sweep_is_all_cache_hits(self, tmp_path):
        from repro.cli import main

        argv = [
            "sweep", "--grid", "fig6", "--quick", "--workloads", "bfs",
            "--bench-repeat", "--min-cache-hit-rate", "1.0",
            "--bench-out", str(tmp_path / "BENCH_sweep.json"),
        ]
        assert main(argv) == 0


class TestSweepMechanics:
    def test_serial_fallback_for_one_worker(self):
        report = sweep.run_sweep([_bfs_cell()], workers=1)
        assert report.mode == "serial" and report.ok

    def test_failures_are_collected_not_raised(self):
        cells = [_bfs_cell(), _bfs_cell(workload="no-such-workload")]
        report = sweep.run_sweep(cells, workers=2)
        assert not report.ok
        assert report.outcomes[0].ok
        assert not report.outcomes[1].ok
        assert "no-such-workload" in report.failures()[0]
        with pytest.raises(SweepError):
            report.raise_failures()

    def test_dedup_cells_by_key(self):
        a = _bfs_cell(tag="fig4")
        b = _bfs_cell(tag="fig5")  # tag not part of the cache key
        traced = _bfs_cell(record_border=True)  # its own key: result + trace
        unique = sweep.dedup_cells([a, b, traced, traced])
        assert unique == [a, traced]

    def test_grid_cells_all_names(self):
        for name in sweep.GRID_NAMES:
            cells = sweep.grid_cells(name, workloads=["bfs"], ops_scale=SCALE)
            assert cells, name
            assert all(cell.tag for cell in cells)
        with pytest.raises(ValueError):
            sweep.grid_cells("fig99")

    def test_write_bench_schema(self, tmp_path):
        report = sweep.run_sweep([_bfs_cell()], workers=1)
        out = tmp_path / "BENCH_sweep.json"
        payload = sweep.write_bench(
            out, report, ["fig4"], serial_wall_seconds=report.wall_seconds * 2,
            verified_identical=True,
        )
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        assert on_disk["schema"] == sweep.BENCH_SCHEMA
        assert on_disk["cells"] == 1
        # A serial run is not a parallel measurement: the snapshot must
        # refuse the speedup label rather than report one.
        assert on_disk["parallel_measurement_valid"] is False
        assert "serial" in on_disk["parallel_invalid_reason"]
        assert on_disk["speedup"] is None
        assert on_disk["speedup_per_worker"] is None
        assert on_disk["cold_wall_seconds"] == on_disk["wall_seconds"]
        assert on_disk["warm_wall_seconds"] is None
        assert on_disk["verified_identical"] is True
        assert on_disk["cells_detail"][0]["ok"] is True

    def test_write_bench_warm_repeat_fields(self, tmp_path):
        cells = [_bfs_cell()]
        cold = sweep.run_sweep(cells, workers=1)
        warm = sweep.run_sweep(cells, workers=1)
        out = tmp_path / "BENCH_sweep.json"
        payload = sweep.write_bench(out, cold, ["fig4"], warm_report=warm)
        assert payload["cold_wall_seconds"] == payload["wall_seconds"]
        assert payload["warm_wall_seconds"] == pytest.approx(
            warm.wall_seconds, abs=1e-4
        )
        assert payload["warm_cache_hit_rate"] == 1.0
        assert payload["warm_speedup"] >= 1.0

    def test_parallel_measurement_validity_matrix(self):
        def fake(mode, workers):
            return sweep.SweepReport(
                outcomes=[], workers=workers, wall_seconds=1.0, mode=mode
            )

        ok, reason = sweep.parallel_measurement_validity(
            fake("parallel", 2), cpu_count=4
        )
        assert ok and reason is None
        for report, cpus, fragment in [
            (fake("serial", 1), 4, "serial"),
            (fake("parallel", 1), 4, "workers"),
            (fake("parallel", 2), 1, "CPU core"),
            (fake("parallel", 8), 2, "oversubscribe"),
        ]:
            ok, reason = sweep.parallel_measurement_validity(report, cpu_count=cpus)
            assert not ok and fragment in reason

    def test_write_bench_speedup_when_parallel_is_genuine(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        report = sweep.SweepReport(
            outcomes=[], workers=2, wall_seconds=1.0, mode="parallel"
        )
        payload = sweep.write_bench(
            tmp_path / "b.json", report, ["fig4"], serial_wall_seconds=3.0
        )
        assert payload["parallel_measurement_valid"] is True
        assert payload["speedup"] == pytest.approx(3.0)
        assert payload["speedup_per_worker"] == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# crash tolerance: injected worker faults, end to end through run_sweep
# ---------------------------------------------------------------------------

_REAL_RUN_SINGLE = run_single
#: safety.value -> ("die" | "transient", sentinel path). Module-level so
#: pool workers inherit it (and the monkeypatched entry points) at fork.
_FAULT_PLAN: dict = {}


def _faulting_run_single(workload, safety, threading, **kwargs):
    """run_single wrapper that injects one host-side fault per sentinel.

    ``die`` SIGKILLs the worker process mid-cell (the OOM-killer story);
    ``transient`` raises :class:`TransientCellError` once. Either way the
    sentinel file makes the retry succeed, so the sweep must complete
    with results bit-identical to an undisturbed serial run.
    """
    plan = _FAULT_PLAN.get(safety.value)
    if plan:
        action, sentinel = plan
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as fh:
                fh.write(action)
            if action == "die":
                time.sleep(0.3)  # stay visible to the running-state sampler
                os.kill(os.getpid(), signal.SIGKILL)
            raise TransientCellError(f"injected transient failure for {workload}")
    return _REAL_RUN_SINGLE(workload, safety, threading, **kwargs)


class TestCrashTolerantSweep:
    def test_sigkill_plus_transient_still_matches_serial(self, tmp_path, monkeypatch):
        """One SIGKILL'd worker and one transient failure: every cell
        completes and the report is field-identical to serial."""
        cells = fig4.grid(
            GPUThreading.MODERATELY, workloads=["bfs"], ops_scale=SCALE
        )
        monkeypatch.setattr(common, "run_single", _faulting_run_single)
        monkeypatch.setattr(sweep, "run_single", _faulting_run_single)
        monkeypatch.setitem(
            _FAULT_PLAN,
            SafetyMode.BC_BCC.value,
            ("die", str(tmp_path / "die.sentinel")),
        )
        monkeypatch.setitem(
            _FAULT_PLAN,
            SafetyMode.CAPI_LIKE.value,
            ("transient", str(tmp_path / "flaky.sentinel")),
        )
        report = sweep.run_sweep(cells, workers=2)
        assert report.ok, report.failures()
        assert report.stats.pool_rebuilds >= 1
        assert report.stats.retries >= 1
        assert os.path.exists(tmp_path / "die.sentinel")
        assert os.path.exists(tmp_path / "flaky.sentinel")
        # The sentinels now exist, so the serial reference runs clean.
        _serial, mismatches = sweep.verify_identical(cells, report)
        assert mismatches == []
        rendered = report.render()
        assert "pool_rebuilds" in rendered and "retries" in rendered

    def test_poison_cell_quarantined_with_replayable_bundle(self, tmp_path):
        """A deterministically failing cell quarantines after N identical
        failures; its bundle replays through the CLI."""
        from repro.cli import main

        cells = [_bfs_cell(), _bfs_cell(workload="no-such-workload")]
        report = sweep.run_sweep(
            cells,
            workers=1,
            policy=SupervisorPolicy(
                retries=5, backoff_base=0.001, max_identical_failures=2
            ),
        )
        bad = report.outcomes[1]
        assert not bad.ok and bad.attempts == 2
        assert "poison" in bad.error
        qdir = common._cache_dir() / "quarantine"
        bundles = list(qdir.glob("poison-*.json"))
        assert len(bundles) == 1
        bundle = json.loads(bundles[0].read_text())
        assert bundle["kind"] == "sweep"
        assert bundle["cell"]["workload"] == "no-such-workload"
        # Replaying reproduces the deterministic failure in-process.
        with pytest.raises(Exception, match="no-such-workload"):
            main(["replay-cell", str(bundles[0])])

    def test_replay_cell_roundtrip_on_healthy_bundle(self, tmp_path, capsys):
        from repro.cli import main
        from repro.supervisor import write_poison_bundle

        cell = _bfs_cell()
        path = write_poison_bundle(
            tmp_path,
            None,
            "OOMKilled (not reproducible in-process)",
            3,
            describe_task=lambda _t: {"kind": "sweep", "cell": cell.to_dict()},
            label=cell.label,
        )
        assert main(["replay-cell", str(path), "--json"]) == 0
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert payload["workload"] == "bfs"
        assert "did not reproduce" in out.err


# ---------------------------------------------------------------------------
# journaled checkpoint / resume
# ---------------------------------------------------------------------------


class TestJournalResume:
    def test_resume_executes_zero_completed_cells(self, monkeypatch):
        cells = fig4.grid(
            GPUThreading.MODERATELY, workloads=["bfs"], ops_scale=SCALE
        )
        with RunJournal.create("test-resume") as journal:
            first = sweep.run_sweep(cells[:2], workers=1, journal=journal)
        assert first.ok and first.resumed_cells == 0

        executed = []
        real_fan_out = sweep.fan_out

        def spying_fan_out(fn, tasks, **kwargs):
            executed.extend(cell.label for cell, _fresh in tasks)
            return real_fan_out(fn, tasks, **kwargs)

        monkeypatch.setattr(sweep, "fan_out", spying_fan_out)
        common.clear_cache(disk=True)  # journal, not cache, must rehydrate
        with RunJournal.open("test-resume") as journal:
            resumed = sweep.run_sweep(cells, workers=1, journal=journal)
        assert resumed.ok
        assert resumed.resumed_cells == 2
        assert resumed.stats.resumed_cells == 2
        assert {o.cell.label for o in resumed.outcomes if o.resumed} == {
            cell.label for cell in cells[:2]
        }
        assert len(executed) == len(cells) - 2  # zero recompute of completed
        assert "journal" in resumed.render()
        # Resume is invisible in the data: bit-identical to serial fresh.
        _serial, mismatches = sweep.verify_identical(cells, resumed)
        assert mismatches == []

    def test_trace_cells_resume_with_identical_traces(self, monkeypatch):
        cells = fig6.grid(
            GPUThreading.MODERATELY, workloads=["bfs", "nn"], ops_scale=SCALE
        )
        with RunJournal.create("test-trace") as journal:
            first = sweep.run_sweep(cells, workers=2, journal=journal)
        assert first.ok

        executed = []
        real_fan_out = sweep.fan_out

        def spying_fan_out(fn, tasks, **kwargs):
            executed.extend(tasks)
            return real_fan_out(fn, tasks, **kwargs)

        monkeypatch.setattr(sweep, "fan_out", spying_fan_out)
        common.clear_cache(disk=True)  # journal, not cache, must rehydrate
        with RunJournal.open("test-trace") as journal:
            again = sweep.run_sweep(cells, workers=2, journal=journal)
        assert again.resumed_cells == len(cells) and executed == []
        assert all(out.result.border_trace for out in again.outcomes)
        _serial, mismatches = sweep.verify_identical(cells, again)
        assert mismatches == []

    def test_failed_entries_reexecute_on_resume(self):
        bad = _bfs_cell(workload="no-such-workload")
        with RunJournal.create("test-failed") as journal:
            first = sweep.run_sweep(
                [bad], workers=1, journal=journal,
                policy=SupervisorPolicy(retries=0),
            )
            assert not first.ok
            assert journal.completed(bad.key()) is None
            again = sweep.run_sweep(
                [bad], workers=1, journal=journal,
                policy=SupervisorPolicy(retries=0),
            )
        assert again.resumed_cells == 0  # failures are never resumable

    def test_journal_lifecycle_and_listing(self, tmp_path):
        with RunJournal.create("run-a") as journal:
            journal.record("k", {"ok": True, "result": {}})
        with pytest.raises(FileExistsError, match="resume"):
            RunJournal.create("run-a")
        with pytest.raises(FileNotFoundError, match="run-a"):
            RunJournal.open("no-such-run", create=False)
        runs = list_runs()
        assert "run-a" in runs
        assert runs["run-a"].parent == journal_dir()

    def test_torn_tail_tolerated(self):
        with RunJournal.create("torn") as journal:
            journal.record("good", {"ok": True, "result": {}})
            path = journal.path
        with open(path, "a") as fh:
            fh.write('{"key": "torn", "ok": tr')  # killed mid-write
        reopened = RunJournal.open("torn")
        try:
            assert reopened.completed("good") is not None
            assert "torn" not in reopened
        finally:
            reopened.close()

    def test_entry_after_a_torn_tail_survives_the_next_reopen(self):
        """An entry recorded after reopening a torn journal starts a
        line of its own, so the next reopen still reads it."""
        with RunJournal.create("torn-then-more") as journal:
            journal.record("good", {"ok": True})
            path = journal.path
        with open(path, "a") as fh:
            fh.write('{"key": "torn", "ok": tr')  # killed mid-write
        with RunJournal.open("torn-then-more") as journal:
            journal.record("after", {"ok": True, "label": "x"})
        with RunJournal.open("torn-then-more") as journal:
            after = journal.completed("after")
            assert after == {"key": "after", "ok": True, "label": "x"}
            assert journal.keys() == ["good", "after"]


class TestJournalProperties:
    def test_replay_idempotent_under_duplicate_appends(self):
        """Property: reloading a journal with arbitrary duplicate appends
        recovers exactly the last-wins state, replay after replay."""
        import tempfile
        from pathlib import Path

        from hypothesis import given
        from hypothesis import strategies as st

        @given(
            entries=st.lists(
                st.tuples(st.sampled_from("abcd"), st.booleans()), max_size=30
            )
        )
        def check(entries):
            with tempfile.TemporaryDirectory() as tmp:
                directory = Path(tmp)
                with RunJournal.create("prop", directory) as journal:
                    for key, ok in entries:
                        journal.record(
                            key, {"ok": ok, "result": {"v": 1} if ok else None}
                        )
                expected = {}
                for key, ok in entries:
                    expected[key] = ok  # last entry per key wins
                reloaded = RunJournal.open("prop", directory)
                assert set(reloaded.completed_keys()) == {
                    k for k, ok in expected.items() if ok
                }
                # Appending every entry again must not change the state.
                for key, ok in entries:
                    reloaded.record(
                        key, {"ok": ok, "result": {"v": 1} if ok else None}
                    )
                reloaded.close()
                again = RunJournal.open("prop", directory)
                assert set(again.completed_keys()) == {
                    k for k, ok in expected.items() if ok
                }
                assert len(again) == len(expected)
                again.close()

        check()


# ---------------------------------------------------------------------------
# graceful degradation: partial results
# ---------------------------------------------------------------------------


class TestGracefulDegradation:
    def test_sweep_error_carries_surviving_outcomes(self):
        cells = [_bfs_cell(), _bfs_cell(workload="no-such-workload")]
        report = sweep.run_sweep(cells, workers=1)
        with pytest.raises(SweepError) as exc_info:
            report.raise_failures()
        err = exc_info.value
        assert err.outcomes is not None
        surviving = [out for out in err.outcomes if out.ok]
        assert len(surviving) == 1
        assert surviving[0].result is not None

    def test_partial_results_and_completion_rate(self):
        cells = [_bfs_cell(), _bfs_cell(workload="no-such-workload")]
        report = sweep.run_sweep(cells, workers=1)
        pairs = report.partial_results()
        assert [cell.workload for cell, _res in pairs] == ["bfs"]
        assert report.completion_rate == pytest.approx(0.5)
        assert "completion 50%" in report.render()

    def test_fig4_allow_partial_renders_gaps(self, monkeypatch):
        def failing_run_single(workload, safety, threading, **kwargs):
            if workload == "hotspot":
                raise ValueError("injected driver failure")
            return _REAL_RUN_SINGLE(workload, safety, threading, **kwargs)

        monkeypatch.setattr(common, "run_single", failing_run_single)
        kwargs = dict(workloads=["bfs", "hotspot"], ops_scale=SCALE, workers=1)
        with pytest.raises(SweepError, match="injected driver failure"):
            fig4.run(GPUThreading.MODERATELY, **kwargs)
        result = fig4.run(GPUThreading.MODERATELY, allow_partial=True, **kwargs)
        assert not result.complete
        assert result.overheads[SafetyMode.BC_BCC]["hotspot"] is None
        assert result.overheads[SafetyMode.BC_BCC]["bfs"] is not None
        assert result.geomean(SafetyMode.BC_BCC) is not None  # survivors only
        rendered = result.render()
        assert "—" in rendered and "PARTIAL" in rendered

    def test_grid_results_allow_partial_does_not_raise(self):
        cells = [_bfs_cell(), _bfs_cell(workload="no-such-workload")]
        with pytest.raises(SweepError):
            sweep.grid_results(cells, workers=1)
        results = sweep.grid_results(cells, workers=1, allow_partial=True)
        assert results[cells[0].key()] is not None
        assert results[cells[1].key()] is None

    def test_same_failure_at_every_worker_count(self, capsys):
        """A figure with a bad workload fails as a campaign does: exit 1
        and one ``FAIL`` line, serially, on the pool and journaled."""
        from repro.cli import main

        first_fail = []
        for flags in ([], ["--workers", "2"], ["--run-id", "fig5-nosuch"]):
            argv = ["fig5", "--quick", "--workloads", "bfs", "nosuch", *flags]
            assert main(argv) == 1, flags
            err = capsys.readouterr().err.splitlines()
            first_fail.append(next(line for line in err if line.startswith("FAIL")))
        assert first_fail[0].startswith("FAIL fig5/nosuch/")
        assert first_fail == [first_fail[0]] * 3

    def test_no_cell_runs_after_its_campaign_returns(self, monkeypatch):
        """The pool's failed cell is not run again in this process, and
        the gap renders as it does serially."""
        here, pid = [], os.getpid()

        def spying_run_single(workload, *args, **kwargs):
            if os.getpid() == pid:
                here.append(workload)
            return _REAL_RUN_SINGLE(workload, *args, **kwargs)

        monkeypatch.setattr(common, "run_single", spying_run_single)
        kwargs = dict(workloads=["bfs", "nosuch"], ops_scale=0.05, allow_partial=True)
        pooled = fig5.run(workers=2, **kwargs)
        assert "nosuch" not in here
        assert pooled.requests_per_cycle["nosuch"] is None
        assert pooled.render() == fig5.run(workers=1, **kwargs).render()

    def test_write_bench_atomic_with_supervisor_counters(self, tmp_path):
        report = sweep.run_sweep([_bfs_cell()], workers=1)
        out = tmp_path / "bench" / "BENCH_sweep.json"
        payload = sweep.write_bench(out, report, ["fig4"])
        assert list(out.parent.glob("*.tmp")) == []
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        assert on_disk["completion_rate"] == 1.0
        assert on_disk["supervisor"] == {
            "retries": 0,
            "pool_rebuilds": 0,
            "poison_cells": 0,
            "deadline_kills": 0,
            "resumed_cells": 0,
        }
        assert on_disk["cells_detail"][0]["attempts"] == 1
        assert on_disk["cells_detail"][0]["resumed"] is False


class TestChaosJournal:
    def test_chaos_result_dict_round_trip(self):
        from repro.chaos import (
            chaos_result_from_dict,
            chaos_result_to_dict,
            run_chaos_single,
        )
        from repro.faults import FaultKind

        run = run_chaos_single("bfs", [FaultKind.DROP], ops_scale=0.1)
        clone = chaos_result_from_dict(chaos_result_to_dict(run))
        assert chaos_result_to_dict(clone) == chaos_result_to_dict(run)
        assert clone.workload == run.workload
        assert clone.plan_signature == run.plan_signature


class TestZeroTickGuard:
    def test_incomplete_downgrade_run_raises_at_source(self, monkeypatch):
        """A kernel that never completes must fail loudly, not yield ticks=0."""
        real_run = Engine.run
        real_process = Engine.process

        def spy_process(self, gen, name=""):
            if name == "downgrade-injector":
                self._wedged = True
            return real_process(self, gen, name=name)

        def wedged_run(self, until=None):
            if getattr(self, "_wedged", False):
                return self.now  # queue "drains" with the kernel outstanding
            return real_run(self, until)

        monkeypatch.setattr(Engine, "process", spy_process)
        monkeypatch.setattr(Engine, "run", wedged_run)
        with pytest.raises(SimulationIncompleteError, match="never completed"):
            run_single(
                "bfs",
                SafetyMode.BC_BCC,
                GPUThreading.MODERATELY,
                ops_scale=SCALE,
                downgrade_interval_cycles=4000.0,
            )


# ---------------------------------------------------------------------------
# journal advisory lock (single writer per run id)
# ---------------------------------------------------------------------------


class TestJournalLock:
    def test_second_opener_rejected_while_held(self, tmp_path):
        from repro.journal import JournalLockedError

        journal = RunJournal.create("locked", tmp_path)
        with pytest.raises(JournalLockedError) as exc:
            RunJournal.open("locked", tmp_path)
        assert "locked" in str(exc.value)
        assert str(os.getpid()) in str(exc.value)  # holder diagnostics
        journal.close()

    def test_lock_released_on_close(self, tmp_path):
        RunJournal.create("relock", tmp_path).close()
        second = RunJournal.open("relock", tmp_path)
        second.record("k", {"ok": True, "result": None})
        second.close()
        third = RunJournal.open("relock", tmp_path)
        assert "k" in third.completed_keys()
        third.close()

    def test_lock_released_when_holder_is_killed(self, tmp_path):
        """SIGKILL must free the lock: flock dies with the process.

        This is the property that makes the service's kill-restart
        recovery work without stale-lease cleanup.
        """
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            f"""
            import os, signal
            from pathlib import Path
            from repro.journal import RunJournal
            journal = RunJournal.create("killed", Path({str(tmp_path)!r}))
            print("held", flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "held"
            proc.wait(timeout=30)
        finally:
            proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL
        survivor = RunJournal.open("killed", tmp_path)  # must not raise
        survivor.close()

    def test_cross_run_ids_do_not_contend(self, tmp_path):
        a = RunJournal.create("run-a", tmp_path)
        b = RunJournal.create("run-b", tmp_path)  # different id: no conflict
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# signal_guard on a running asyncio loop
# ---------------------------------------------------------------------------


class TestAsyncSignalGuard:
    def test_async_guard_installs_loop_handler_and_cancels_task(self, tmp_path):
        """Inside a loop, SIGTERM must cancel the guarded task (not
        raise KeyboardInterrupt from a sync handler mid-callback)."""
        import asyncio

        async def guarded():
            journal = RunJournal.create("async-guard", tmp_path)
            try:
                with journal.signal_guard():
                    loop = asyncio.get_running_loop()
                    loop.call_later(
                        0.05, os.kill, os.getpid(), signal.SIGTERM
                    )
                    await asyncio.sleep(30.0)
                    return "not cancelled"
            finally:
                journal.close()

        with pytest.raises(asyncio.CancelledError):
            asyncio.run(guarded())

    def test_async_guard_on_signal_callback_overrides_cancel(self, tmp_path):
        """A drain-style callback suppresses the default cancellation."""
        import asyncio

        seen = []

        async def guarded():
            journal = RunJournal.create("async-drain", tmp_path)
            try:
                with journal.signal_guard(on_signal=seen.append):
                    loop = asyncio.get_running_loop()
                    loop.call_later(
                        0.05, os.kill, os.getpid(), signal.SIGTERM
                    )
                    await asyncio.sleep(0.3)
                    return "survived"
            finally:
                journal.close()

        assert asyncio.run(guarded()) == "survived"
        assert seen == [signal.SIGTERM]

    def test_sync_guard_still_converts_sigterm(self, tmp_path):
        """No loop: the old synchronous KeyboardInterrupt contract holds."""
        journal = RunJournal.create("sync-guard", tmp_path)
        try:
            with pytest.raises(KeyboardInterrupt):
                with journal.signal_guard():
                    os.kill(os.getpid(), signal.SIGTERM)
                    time.sleep(5.0)
        finally:
            journal.close()


# ---------------------------------------------------------------------------
# pool workers: no state between cells, shared across sweeps, no life
# after their owner
# ---------------------------------------------------------------------------


def _live_systems() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, System))


def _systems_left_by_cell(task) -> int:
    """Run one ``(cell, fresh)`` task in this worker; return how
    many more Systems are alive afterwards. A forked worker also inherits
    whatever its parent held, so count the difference."""
    before = _live_systems()
    sweep._run_cell(task)
    return _live_systems() - before


def _pid_logging_run_single(*args, **kwargs):
    """``run_single`` that first appends this process's pid to $PID_LOG."""
    with open(os.environ["PID_LOG"], "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return _REAL_RUN_SINGLE(*args, **kwargs)


#: Imported by the owner process and its pool workers: marks that the
#: worker is initialized and running its task, then outsleeps the test.
_OWNER_TASK = """
import os
import time


def mark_and_sleep(marker_dir):
    open(os.path.join(marker_dir, str(os.getpid())), "w").close()
    time.sleep(120)
"""

_OWNER_SCRIPT = """
import sys

import owner_task
from repro import sweep

sweep.fan_out(owner_task.mark_and_sleep, [sys.argv[1]] * 2, workers=2)
"""


def _proc_stat(pid: int):
    """``(state, ppid)`` from ``/proc/<pid>/stat``, or None once gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces; the fields
    # after it start with the state and the parent pid.
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def _children_of(pid: int):
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid:
                children.append(int(entry))
    return children


def _running(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _pool_workers():
    """This process's running children but the multiprocessing resource
    tracker: the workers of its pool."""
    tracker = multiprocessing.resource_tracker._resource_tracker._pid
    return {
        pid for pid in _children_of(os.getpid()) if _running(pid) and pid != tracker
    }


def _init_then_sleep(owner: int) -> None:
    try:
        supervisor._worker_init(owner)
    except Exception:
        os._exit(2)  # not the owner watch's exit status
    time.sleep(60)


class TestPoolWorkers:
    def test_workers_keep_no_system_between_cells(self):
        cells = [_bfs_cell(safety=safety) for safety in SafetyMode]
        outcomes, mode = sweep.fan_out(
            _systems_left_by_cell,
            [(cell, True) for cell in cells],
            workers=2,
        )
        assert mode == "parallel"
        assert [out.error for out in outcomes] == [None] * len(cells)
        assert [out.value for out in outcomes] == [0] * len(cells)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_consecutive_sweeps_share_one_pool(self, tmp_path, monkeypatch):
        log = tmp_path / "pids.log"
        monkeypatch.setenv("PID_LOG", str(log))
        monkeypatch.setattr(common, "run_single", _pid_logging_run_single)
        earlier = _pool_workers()  # anything an earlier test left exiting
        first = sweep.run_sweep([_bfs_cell(seed=s) for s in (1, 2, 3)], workers=2)
        workers = _pool_workers() - earlier
        second = sweep.run_sweep([_bfs_cell(seed=s) for s in (4, 5, 6)], workers=2)
        assert first.ok and second.ok
        assert (first.mode, second.mode) == ("parallel", "parallel")
        assert len(workers) == 2  # the first sweep's pool outlived it
        ran = {int(pid) for pid in log.read_text().split()}
        assert ran <= workers  # both sweeps' cells ran on those workers
        assert _pool_workers() - earlier == workers
        assert first.stats.pool_rebuilds == second.stats.pool_rebuilds == 0

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_children_exit_when_owner_is_sigkilled(self, tmp_path):
        (tmp_path / "owner_task.py").write_text(_OWNER_TASK)
        markers = tmp_path / "markers"
        markers.mkdir()
        src = str(Path(sweep.__file__).resolve().parents[1])
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER_SCRIPT, str(markers)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(tmp_path)])},
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(list(markers.iterdir())) < 2:
                assert owner.poll() is None, "owner exited before its pool ran"
                assert time.monotonic() < deadline, "pool workers never started"
                time.sleep(0.05)
            workers = [int(marker.name) for marker in markers.iterdir()]
            assert set(workers) <= set(_children_of(owner.pid))

            owner.kill()
            owner.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait()
            for pid in workers:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)

    def test_worker_exits_when_owner_died_before_init(self):
        """An owner killed between the fork and the initializer leaves the
        worker reparented before it looks: its parent never changes, yet
        it must exit once the owner is gone."""
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        worker = multiprocessing.get_context("fork").Process(
            target=_init_then_sleep, args=(gone.pid,)
        )
        worker.start()
        try:
            worker.join(timeout=10)
            assert worker.exitcode == 1
        finally:
            if worker.is_alive():
                worker.kill()
                worker.join()
