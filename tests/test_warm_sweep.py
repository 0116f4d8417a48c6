"""Warm worker reuse, cache provenance, and incremental sweep caching.

These tests pin the two halves of the parallel-sweep repair:

* **Warm Systems** — a worker reuses constructed ``System`` instances
  via in-place reset, and the reuse is bit-identical to building fresh.
* **Honest caching** — cache-hit accounting is the provenance fact
  ``cached_run_ex`` returns (never a racy file-existence probe), a
  repeat sweep over an identical grid is 100% hits with zero recompute,
  and workers are pinned to the parent's resolved cache dir regardless
  of their inherited environment or start method.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import tempfile
from pathlib import Path

import pytest

from repro import sweep
from repro.experiments import common
from repro.journal import RunJournal
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import (
    clear_warm_registry,
    run_single,
    warm_enabled,
    warm_registry_stats,
)
from repro.supervisor import supervised_map

SCALE = 0.05


def _cell(**overrides) -> sweep.Cell:
    params = dict(
        workload="bfs",
        safety=SafetyMode.ATS_ONLY,
        threading=GPUThreading.MODERATELY,
        ops_scale=SCALE,
    )
    params.update(overrides)
    return sweep.Cell(**params)


@pytest.fixture(autouse=True)
def isolated_state(tmp_path, monkeypatch):
    """Fresh cache dir, cold memory cache, cold warm registry, warm off."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_WARM", raising=False)
    monkeypatch.delenv("REPRO_WARM_MAX", raising=False)
    common._memory_cache.clear()
    clear_warm_registry()
    yield
    common._memory_cache.clear()
    clear_warm_registry()


def _fields(result) -> dict:
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(type(result))
    }


def _run(cell: sweep.Cell):
    return run_single(
        cell.workload,
        cell.safety,
        cell.threading,
        seed=cell.seed,
        ops_scale=cell.ops_scale,
        record_border=cell.record_border,
        downgrade_interval_cycles=cell.downgrade_interval_cycles,
    )


# ---------------------------------------------------------------------------
# warm System registry: reuse must be invisible in the data
# ---------------------------------------------------------------------------


class TestWarmRegistry:
    def test_warm_off_by_default(self):
        assert not warm_enabled()
        _run(_cell())
        assert warm_registry_stats()["size"] == 0

    def test_warm_reuse_bit_identical(self, monkeypatch):
        cells = [_cell(safety=safety) for safety in SafetyMode]
        cells.append(_cell(downgrade_interval_cycles=5e4))
        fresh = [_fields(_run(cell)) for cell in cells]

        monkeypatch.setenv("REPRO_WARM", "1")
        clear_warm_registry()
        first_warm = [_fields(_run(cell)) for cell in cells]
        second_warm = [_fields(_run(cell)) for cell in cells]

        for cell, expect, w1, w2 in zip(cells, fresh, first_warm, second_warm):
            assert w1 == expect, f"{cell.label}: first warm pass diverged"
            assert w2 == expect, f"{cell.label}: reused System diverged"
        stats = warm_registry_stats()
        # Second pass runs every cell on a reused System.
        assert stats["hits"] >= len(cells)
        assert stats["size"] > 0

    def test_trace_hooks_do_not_leak_across_reuse(self, monkeypatch):
        plain = _cell(safety=SafetyMode.BC_BCC)
        traced = _cell(safety=SafetyMode.BC_BCC, record_border=True)
        expected = _fields(_run(plain))

        monkeypatch.setenv("REPRO_WARM", "1")
        clear_warm_registry()
        traced_result = _run(traced)
        assert traced_result.border_trace  # the hook did record
        reused = _run(plain)  # same config → reuses the traced System
        assert warm_registry_stats()["hits"] >= 1
        assert reused.border_trace is None
        got = _fields(reused)
        expected.pop("border_trace"), got.pop("border_trace")
        assert got == expected

    def test_registry_cap_evicts_lru(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARM", "1")
        monkeypatch.setenv("REPRO_WARM_MAX", "1")
        clear_warm_registry()
        _run(_cell(safety=SafetyMode.ATS_ONLY))
        _run(_cell(safety=SafetyMode.FULL_IOMMU))
        stats = warm_registry_stats()
        assert stats["size"] == 1
        assert stats["evictions"] >= 1


# ---------------------------------------------------------------------------
# cache provenance: the hit flag is what cached_run_ex reports
# ---------------------------------------------------------------------------


class TestCacheProvenance:
    ARGS = ("bfs", SafetyMode.ATS_ONLY, GPUThreading.MODERATELY)

    def test_sources_computed_memory_disk(self):
        _, source = common.cached_run_ex(*self.ARGS, ops_scale=SCALE)
        assert source == "computed"
        _, source = common.cached_run_ex(*self.ARGS, ops_scale=SCALE)
        assert source == "memory"
        common._memory_cache.clear()
        _, source = common.cached_run_ex(*self.ARGS, ops_scale=SCALE)
        assert source == "disk"

    def test_run_cell_hit_flag_is_provenance(self):
        task = (_cell(), True, False)
        _result, hit = sweep._run_cell(task)
        assert hit is False
        _result, hit = sweep._run_cell(task)
        assert hit is True

    def test_two_worker_race_reports_true_computes(self, tmp_path):
        """Two cold processes race one key: reported provenance must match
        the number of simulations that actually ran (the old
        ``cache_path(...).exists()`` probe misreported exactly here)."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("race test needs fork to inherit the patched runner")
        ctx = multiprocessing.get_context("fork")
        sentinel_dir = tmp_path / "sentinels"
        sentinel_dir.mkdir()
        cache_dir = os.environ["REPRO_CACHE_DIR"]
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_probe,
                args=(barrier, cache_dir, str(sentinel_dir), queue),
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        reports = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        sources = [source for source, _ticks in reports]
        computes = len(list(Path(sentinel_dir).glob("compute.*")))
        assert all(s in ("computed", "disk", "memory") for s in sources)
        assert sources.count("computed") == computes
        assert computes >= 1
        # Both racers agree on the data, and exactly one entry exists.
        assert len({ticks for _source, ticks in reports}) == 1
        key = common.cache_key("bfs", SafetyMode.ATS_ONLY,
                               GPUThreading.MODERATELY, seed=99,
                               ops_scale=SCALE)
        assert common.cache_path(key).exists()


def _race_probe(barrier, cache_dir, sentinel_dir, queue):
    """Forked child: cold caches, counted computes, one cached_run_ex."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    common._memory_cache.clear()
    real = common.run_single

    def counted(*args, **kwargs):
        fd, _path = tempfile.mkstemp(dir=sentinel_dir, prefix="compute.")
        os.close(fd)
        return real(*args, **kwargs)

    common.run_single = counted
    barrier.wait()
    result, source = common.cached_run_ex(
        "bfs",
        SafetyMode.ATS_ONLY,
        GPUThreading.MODERATELY,
        seed=99,
        ops_scale=SCALE,
    )
    queue.put((source, result.ticks))


# ---------------------------------------------------------------------------
# worker initializer: cache-dir pinning under both start methods
# ---------------------------------------------------------------------------


def _worker_init_probe(cache_dir_arg, warm, queue):
    """Child without REPRO_CACHE_DIR — the old initializer left such a
    worker unpinned (caching wherever its cwd pointed)."""
    os.environ.pop("REPRO_CACHE_DIR", None)
    sweep._worker_init(cache_dir_arg, None, warm)
    queue.put(
        (
            os.environ["REPRO_CACHE_DIR"],
            str(common._cache_dir()),
            os.environ["REPRO_WARM"],
        )
    )


class TestWorkerInitEnv:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_unset_env_worker_is_pinned(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        ctx = multiprocessing.get_context(start_method)
        target = str((tmp_path / "pinned").resolve())
        queue = ctx.Queue()
        proc = ctx.Process(target=_worker_init_probe, args=(target, True, queue))
        proc.start()
        env_dir, effective_dir, warm = queue.get(timeout=60)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert env_dir == target
        assert effective_dir == target
        assert warm == "1"

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_none_resolves_absolute_default(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        ctx = multiprocessing.get_context(start_method)
        queue = ctx.Queue()
        proc = ctx.Process(target=_worker_init_probe, args=(None, False, queue))
        proc.start()
        env_dir, effective_dir, warm = queue.get(timeout=60)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert os.path.isabs(env_dir)
        assert Path(env_dir).name == ".exp_cache"
        assert effective_dir == env_dir
        assert warm == "0"

    def test_worker_init_installs_and_clears_grid(self):
        import pickle

        cells = (_cell(),)
        blob = pickle.dumps((cells, True, False))
        try:
            sweep._worker_init(None, blob, False)
            assert sweep._grid_context == (cells, True, False)
            sweep._worker_init(None, None, False)
            assert sweep._grid_context is None
        finally:
            sweep._clear_grid()

    def test_run_cell_without_context_is_loud(self):
        sweep._clear_grid()
        with pytest.raises(RuntimeError, match="grid context"):
            sweep._run_cell(0)


# ---------------------------------------------------------------------------
# incremental reuse: repeat sweeps must not recompute
# ---------------------------------------------------------------------------


@pytest.fixture
def counted_runs(monkeypatch):
    """Count actual simulations executed by the in-process serial path."""
    computes = []
    real = common.run_single

    def counting(*args, **kwargs):
        computes.append(args[0] if args else kwargs.get("workload"))
        return real(*args, **kwargs)

    monkeypatch.setattr(common, "run_single", counting)
    return computes


class TestIncrementalReuse:
    def _grid(self):
        return [
            _cell(safety=safety)
            for safety in (
                SafetyMode.ATS_ONLY,
                SafetyMode.FULL_IOMMU,
                SafetyMode.BC_BCC,
            )
        ]

    def test_second_sweep_is_all_hits_zero_compute(self, counted_runs):
        cells = self._grid()
        first = sweep.run_sweep(cells, workers=1)
        assert first.ok
        assert first.cache_hit_rate == 0.0
        assert len(counted_runs) == len(cells)

        second = sweep.run_sweep(cells, workers=1)
        assert second.ok
        assert second.cache_hit_rate == 1.0
        assert len(counted_runs) == len(cells)  # zero new compute
        assert all(out.cache_hit for out in second.outcomes)

    def test_repeat_hits_survive_process_restart(self, counted_runs):
        """Only the disk cache survives a new process; hits must too."""
        cells = self._grid()
        sweep.run_sweep(cells, workers=1)
        baseline = len(counted_runs)
        common._memory_cache.clear()  # simulate a fresh process
        again = sweep.run_sweep(cells, workers=1)
        assert again.cache_hit_rate == 1.0
        assert len(counted_runs) == baseline
        assert all(
            out.cache_hit and not out.resumed for out in again.outcomes
        )

    def test_full_hits_after_journal_resume(self, counted_runs):
        cells = self._grid()
        with RunJournal.create("warm-resume") as journal:
            sweep.run_sweep(cells[:2], workers=1, journal=journal)
        interrupted = len(counted_runs)
        assert interrupted == 2

        common.clear_cache(disk=True)  # journal, not cache, rehydrates
        with RunJournal.open("warm-resume") as journal:
            resumed = sweep.run_sweep(cells, workers=1, journal=journal)
        assert resumed.ok
        assert resumed.resumed_cells == 2
        assert len(counted_runs) == len(cells)  # only the new cell ran

        follow_up = sweep.run_sweep(cells, workers=1)
        assert follow_up.cache_hit_rate == 1.0
        assert len(counted_runs) == len(cells)

    def test_changed_seed_invalidates_only_itself(self, counted_runs):
        cells = self._grid()
        sweep.run_sweep(cells, workers=1)
        baseline = len(counted_runs)

        changed = list(cells)
        changed[1] = dataclasses.replace(changed[1], seed=changed[1].seed + 1)
        repeat = sweep.run_sweep(changed, workers=1)
        assert len(counted_runs) == baseline + 1  # exactly one recompute
        assert repeat.cache_hit_rate == pytest.approx(
            (len(cells) - 1) / len(cells)
        )
        assert not repeat.outcomes[1].cache_hit
        assert all(
            out.cache_hit for i, out in enumerate(repeat.outcomes) if i != 1
        )


# ---------------------------------------------------------------------------
# supervisor serial hooks: the serial path brackets setup/teardown
# ---------------------------------------------------------------------------


def _identity(task):
    return task


def _boom(task):
    raise ValueError("boom")


class TestSerialHooks:
    def test_hooks_bracket_serial_path(self):
        events = []
        outcomes, mode = supervised_map(
            _identity,
            [1, 2],
            workers=1,
            serial_setup=lambda: events.append("setup"),
            serial_teardown=lambda: events.append("teardown"),
        )
        assert mode == "serial"
        assert [out.value for out in outcomes] == [1, 2]
        assert events == ["setup", "teardown"]

    def test_teardown_runs_after_failures(self):
        events = []
        outcomes, mode = supervised_map(
            _boom,
            [1],
            workers=1,
            serial_setup=lambda: events.append("setup"),
            serial_teardown=lambda: events.append("teardown"),
        )
        assert mode == "serial"
        assert not outcomes[0].ok
        assert events == ["setup", "teardown"]
