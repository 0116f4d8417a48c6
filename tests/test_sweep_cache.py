"""The sweep's result cache and the pool workers' per-task prologue.

* **Honest caching** — cache-hit accounting is the provenance fact
  ``cached_run_ex`` returns (never a racy file-existence probe), and a
  repeat sweep over an identical grid is 100% hits with zero recompute.
* **Per-task prologue** — a pool worker is pinned to the parent's
  resolved cache dir before every task, regardless of its inherited
  environment or start method, so campaigns sharing the pool each
  cache only to their own dir.
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
    """Fresh cache dir and a cold memory cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common._memory_cache.clear()
    yield
    common._memory_cache.clear()


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
        task = (_cell(), False)
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
# per-task prologue: cache-dir pinning under both start methods
# ---------------------------------------------------------------------------


def _worker_init_probe(cache_dir_arg, queue):
    """Child without REPRO_CACHE_DIR — the old initializer left such a
    worker unpinned (caching wherever its cwd pointed)."""
    os.environ.pop("REPRO_CACHE_DIR", None)
    sweep._pin_worker(cache_dir_arg)
    queue.put((os.environ["REPRO_CACHE_DIR"], str(common._cache_dir())))


class TestWorkerInitEnv:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_unset_env_worker_is_pinned(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        ctx = multiprocessing.get_context(start_method)
        target = str((tmp_path / "pinned").resolve())
        queue = ctx.Queue()
        proc = ctx.Process(target=_worker_init_probe, args=(target, queue))
        proc.start()
        env_dir, effective_dir = queue.get(timeout=60)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert env_dir == target
        assert effective_dir == target

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_none_resolves_absolute_default(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        ctx = multiprocessing.get_context(start_method)
        queue = ctx.Queue()
        proc = ctx.Process(target=_worker_init_probe, args=(None, queue))
        proc.start()
        env_dir, effective_dir = queue.get(timeout=60)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert os.path.isabs(env_dir)
        assert Path(env_dir).name == ".exp_cache"
        assert effective_dir == env_dir

    def test_campaigns_sharing_the_pool_cache_to_their_own_dirs(
        self, tmp_path, monkeypatch
    ):
        """The pool outlives a campaign, so its workers were forked under
        the first campaign's environment; the prologue re-pins them."""
        dirs = [tmp_path / "first", tmp_path / "second"]
        grids = [
            [_cell(seed=seed) for seed in (1, 2)],
            [_cell(seed=seed) for seed in (3, 4)],
        ]
        for directory, cells in zip(dirs, grids):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
            report = sweep.run_sweep(cells, workers=2)
            assert report.mode == "parallel" and report.ok
        for directory, cells in zip(dirs, grids):
            cached = {path.name for path in directory.glob("*.json")}
            assert cached == {common.cache_path(cell.key()).name for cell in cells}


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
