"""Tests for the crash-tolerant process-pool supervisor.

Fault injection is real: worker processes SIGKILL themselves mid-task,
hang past their deadline, or raise transient/deterministic errors, and
the tests assert the supervisor's containment story — siblings finish,
charged attempts land on the right task, poison cells quarantine with a
replayable bundle, and the counters account for every recovery action.

Tasks are plain picklable tuples and the worker functions live at
module level, so the same code runs under both ``fork`` and ``spawn``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.errors import TransientCellError
from repro.supervisor import (
    BUNDLE_SCHEMA,
    ERROR_ABORTED,
    ERROR_CRASH,
    ERROR_DEADLINE,
    ERROR_DETERMINISTIC,
    ERROR_TRANSIENT,
    SupervisorPolicy,
    SupervisorStats,
    shared_pool,
    supervised_map,
    traced_call,
    write_poison_bundle,
)

# ---------------------------------------------------------------------------
# worker-side task functions (module level: they cross the pickle boundary)
# ---------------------------------------------------------------------------


def _faulty_task(task):
    """Interpret one (action, arg) task tuple inside a pool worker.

    * ``("ok", x)`` — return ``x * 2``.
    * ``("sleep-ok", seconds)`` — sleep, then return ``"slept"``.
    * ``("log-sleep", (path, seconds))`` — append this worker's pid to
      ``path`` (one line per execution), then sleep and return
      ``"slept"``.
    * ``("die", sentinel)`` — SIGKILL this worker; if ``sentinel`` names
      a file, create it first and only die when it didn't exist yet
      (crash exactly once, succeed on retry).
    * ``("transient", sentinel)`` — raise :class:`TransientCellError`
      until the sentinel exists.
    * ``("boom", msg)`` — always raise ``ValueError(msg)`` (deterministic).
    * ``("hang", seconds)`` — sleep far past any deadline.
    """
    action, arg = task
    if action == "ok":
        return arg * 2
    if action == "sleep-ok":
        time.sleep(arg)
        return "slept"
    if action == "log-sleep":
        path, seconds = arg
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        time.sleep(seconds)
        return "slept"
    if action == "die":
        if arg:
            if os.path.exists(arg):
                return "survived"
            with open(arg, "w") as fh:
                fh.write("crashed once\n")
        time.sleep(0.3)  # stay alive long enough to be observed running
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "transient":
        if arg and os.path.exists(arg):
            return "recovered"
        if arg:
            with open(arg, "w") as fh:
                fh.write("failed once\n")
        raise TransientCellError("simulated flaky infrastructure")
    if action == "boom":
        raise ValueError(arg)
    if action == "hang":
        time.sleep(arg)
        return "woke"
    raise AssertionError(f"unknown action {action!r}")


def _fan_out_doubles(count):
    """A pool task that fans out a pool of its own."""
    outcomes, mode = supervised_map(_faulty_task, [("ok", i) for i in range(count)], workers=2)
    return mode, [out.value for out in outcomes]


def _running(pid):
    """Is ``pid`` alive (a zombie is not)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


def _describe(task):
    return {"kind": "test-task", "action": task[0]}


# ---------------------------------------------------------------------------
# policy / primitives
# ---------------------------------------------------------------------------


class TestPolicy:
    def test_backoff_is_bounded_exponential(self):
        policy = SupervisorPolicy(backoff_base=0.1, backoff_max=0.5)
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_jitter_is_deterministic_per_key(self):
        policy = SupervisorPolicy(backoff_base=0.1, jitter=0.25, jitter_seed=7)
        first = policy.backoff(2, jitter_key="3:2")
        # Same (seed, key) → same delay, every time: a resumed run
        # replays the exact schedule the original run would have used.
        assert policy.backoff(2, jitter_key="3:2") == first
        # Different keys decorrelate (no thundering herd)...
        assert policy.backoff(2, jitter_key="4:2") != first
        # ...and different seeds decorrelate different runs.
        other = SupervisorPolicy(backoff_base=0.1, jitter=0.25, jitter_seed=8)
        assert other.backoff(2, jitter_key="3:2") != first

    def test_jitter_stays_within_amplitude(self):
        policy = SupervisorPolicy(backoff_base=0.1, backoff_max=10.0, jitter=0.25)
        base = 0.2  # attempts=2, under the cap
        for key in (f"{i}:{a}" for i in range(20) for a in (1, 2, 3)):
            delay = policy.backoff(2, jitter_key=key)
            assert base * 0.75 <= delay <= base * 1.25

    def test_jitter_disabled_by_zero_or_empty_key(self):
        exact = SupervisorPolicy(backoff_base=0.1, jitter=0.0)
        assert exact.backoff(2, jitter_key="0:2") == pytest.approx(0.2)
        keyless = SupervisorPolicy(backoff_base=0.1, jitter=0.25)
        assert keyless.backoff(2) == pytest.approx(0.2)

    def test_stats_as_dict_and_any_recovery(self):
        stats = SupervisorStats(retries=1, poison_cells=3, resumed_cells=4)
        assert stats.as_dict() == {
            "retries": 1,
            "pool_rebuilds": 0,
            "poison_cells": 3,
            "deadline_kills": 0,
            "resumed_cells": 4,
        }
        assert stats.any_recovery
        assert not SupervisorStats().any_recovery

    def test_traced_call_classifies_failures(self):
        value, error, wall, kind = traced_call(_faulty_task, ("ok", 21))
        assert (value, error, kind) == (42, None, None)
        assert wall >= 0.0
        _, error, _, kind = traced_call(_faulty_task, ("boom", "broken"))
        assert kind == ERROR_DETERMINISTIC
        assert "ValueError: broken" in error
        _, error, _, kind = traced_call(_faulty_task, ("transient", ""))
        assert kind == ERROR_TRANSIENT
        assert "TransientCellError" in error


class TestPoisonBundle:
    def test_bundle_atomic_stable_and_replayable(self, tmp_path):
        qdir = tmp_path / "quarantine"
        path1 = write_poison_bundle(
            qdir, ("boom", "x"), "ValueError: x", 2,
            describe_task=_describe, label="boom-cell",
        )
        path2 = write_poison_bundle(
            qdir, ("boom", "x"), "ValueError: x\nmore detail", 3,
            describe_task=_describe, label="boom-cell",
        )
        assert path1 == path2  # stable name → overwrite, not accumulate
        assert list(qdir.glob("*.tmp")) == []
        bundle = json.loads(path1.read_text())
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["kind"] == "test-task"
        assert bundle["attempts"] == 3
        assert bundle["label"] == "boom-cell"

    def test_opaque_bundle_without_describer(self, tmp_path):
        path = write_poison_bundle(tmp_path, ("boom", "x"), "err", 1)
        bundle = json.loads(path.read_text())
        assert bundle["kind"] == "opaque"
        assert "boom" in bundle["repr"]


# ---------------------------------------------------------------------------
# supervised_map — serial path
# ---------------------------------------------------------------------------


class TestSerialSupervision:
    def test_transient_failure_retried_to_success(self, tmp_path):
        sentinel = str(tmp_path / "flaky.sentinel")
        stats = SupervisorStats()
        outcomes, mode = supervised_map(
            _faulty_task,
            [("ok", 1), ("transient", sentinel)],
            workers=1,
            policy=SupervisorPolicy(retries=2, backoff_base=0.001),
            stats=stats,
        )
        assert mode == "serial"
        assert [out.value for out in outcomes] == [2, "recovered"]
        assert outcomes[1].attempts == 2
        assert stats.retries == 1
        assert stats.poison_cells == 0

    def test_deterministic_failure_poisons_without_burning_retries(self, tmp_path):
        qdir = tmp_path / "quarantine"
        stats = SupervisorStats()
        outcomes, _ = supervised_map(
            _faulty_task,
            [("boom", "same message every time")],
            workers=1,
            policy=SupervisorPolicy(
                retries=10,  # would retry 10x; poison detection stops at 2
                backoff_base=0.001,
                max_identical_failures=2,
                quarantine_dir=qdir,
            ),
            stats=stats,
            describe_task=_describe,
        )
        out = outcomes[0]
        assert not out.ok
        assert out.attempts == 2  # not 11
        assert out.error_kind == ERROR_DETERMINISTIC
        assert "poison: quarantined after 2 identical failures" in out.error
        assert stats.poison_cells == 1
        bundles = list(qdir.glob("poison-*.json"))
        assert len(bundles) == 1
        assert json.loads(bundles[0].read_text())["schema"] == BUNDLE_SCHEMA

    def test_retries_zero_is_single_shot(self):
        stats = SupervisorStats()
        outcomes, _ = supervised_map(
            _faulty_task,
            [("boom", "nope")],
            workers=1,
            policy=SupervisorPolicy(retries=0),
            stats=stats,
        )
        assert outcomes[0].attempts == 1
        assert stats.retries == 0


# ---------------------------------------------------------------------------
# supervised_map — parallel path with real faults
# ---------------------------------------------------------------------------


class TestParallelSupervision:
    def test_sigkilled_worker_spares_siblings_and_retries(self, tmp_path):
        """A SIGKILL'd worker fails only its own cell; the rebuilt pool
        re-runs it and every sibling completes untouched."""
        sentinel = str(tmp_path / "crash.sentinel")
        stats = SupervisorStats()
        tasks = [("ok", 1), ("die", sentinel), ("ok", 2), ("ok", 3)]
        outcomes, mode = supervised_map(
            _faulty_task,
            tasks,
            workers=2,
            policy=SupervisorPolicy(retries=2, backoff_base=0.001),
            stats=stats,
        )
        assert mode == "parallel"
        assert [out.ok for out in outcomes] == [True] * 4
        assert [out.value for out in outcomes] == [2, "survived", 4, 6]
        assert stats.pool_rebuilds >= 1
        crashed = outcomes[1]
        assert crashed.attempts >= 2  # the kill charged a real attempt

    def test_one_break_is_one_replacement_across_campaigns(self, tmp_path):
        """Two campaigns share the pool and one SIGKILLs a worker while
        the other has a cell running: the first supervisor to see the
        break replaces the pool, the other finds it replaced and
        resubmits, and both finish."""
        sentinel = str(tmp_path / "crash.sentinel")
        policy = SupervisorPolicy(retries=2, backoff_base=0.001)
        before = shared_pool.replacements
        stats_a, stats_b = SupervisorStats(), SupervisorStats()
        crasher = {}

        def campaign_a():
            crasher["outcomes"], _ = supervised_map(
                _faulty_task,
                [("die", sentinel), ("ok", 1)],
                workers=2,
                policy=policy,
                stats=stats_a,
            )

        thread = threading.Thread(target=campaign_a)
        thread.start()
        time.sleep(0.1)  # A's cell dies at 0.3 s, while B's first one runs
        outcomes, mode = supervised_map(
            _faulty_task,
            [("sleep-ok", 0.5)] * 3,
            workers=2,
            policy=policy,
            stats=stats_b,
        )
        thread.join(60)
        assert mode == "parallel"
        assert [out.value for out in crasher["outcomes"]] == ["survived", 2]
        assert [out.value for out in outcomes] == ["slept"] * 3
        assert shared_pool.replacements - before == 1
        assert stats_a.pool_rebuilds + stats_b.pool_rebuilds == 1

    def test_a_pool_task_can_fan_out_itself(self):
        """Pool workers are forked while the parent holds the pool's lock,
        so a worker must start with no pool and a free lock; and a worker
        that started a pool of its own must stop it to exit."""
        outcomes, _ = supervised_map(
            _fan_out_doubles,
            [2, 3],
            workers=2,
            policy=SupervisorPolicy(retries=0, deadline_seconds=30.0),
        )
        assert [out.value for out in outcomes] == [
            ("parallel", [0, 2]),
            ("parallel", [0, 2, 4]),
        ]
        pool = shared_pool._executor
        stopping = threading.Thread(target=shared_pool.shutdown)
        stopping.start()
        stopping.join(30)
        hung = stopping.is_alive()
        if hung:  # free the suite from a pool that can never stop
            shared_pool.kill(pool)
        assert not hung

    def test_crash_blast_radius_with_retries_disabled(self):
        """Satellite (a): even single-shot, a dead worker fails only the
        cell it was running — with the broken-pool error preserved —
        while queued siblings are resubmitted and complete."""
        stats = SupervisorStats()
        tasks = [("die", ""), ("ok", 1), ("ok", 2), ("ok", 3), ("ok", 4)]
        outcomes, _ = supervised_map(
            _faulty_task,
            tasks,
            workers=2,
            policy=SupervisorPolicy(retries=0),
            stats=stats,
        )
        assert not outcomes[0].ok
        assert outcomes[0].error_kind == ERROR_CRASH
        assert "BrokenProcessPool" in outcomes[0].error
        assert "died mid-cell" in outcomes[0].error
        assert [out.ok for out in outcomes[1:]] == [True] * 4
        assert [out.value for out in outcomes[1:]] == [2, 4, 6, 8]
        assert stats.pool_rebuilds >= 1

    def test_transient_failures_retry_in_parallel(self, tmp_path):
        sentinel = str(tmp_path / "flaky.sentinel")
        stats = SupervisorStats()
        outcomes, _ = supervised_map(
            _faulty_task,
            [("transient", sentinel), ("ok", 5), ("ok", 6)],
            workers=2,
            policy=SupervisorPolicy(retries=2, backoff_base=0.001),
            stats=stats,
        )
        assert [out.ok for out in outcomes] == [True] * 3
        assert outcomes[0].value == "recovered"
        assert outcomes[0].error_kind is None
        assert stats.retries >= 1

    def test_hung_worker_killed_at_deadline(self):
        """A cell that wedges its worker is killed at the wall-clock
        deadline and reported as such; quick siblings still land."""
        stats = SupervisorStats()
        outcomes, _ = supervised_map(
            _faulty_task,
            [("hang", 60.0), ("ok", 1), ("ok", 2)],
            workers=2,
            policy=SupervisorPolicy(retries=0, deadline_seconds=0.6),
            stats=stats,
        )
        assert not outcomes[0].ok
        assert outcomes[0].error_kind == ERROR_DEADLINE
        assert "wall-clock budget" in outcomes[0].error
        assert stats.deadline_kills == 1
        assert [out.ok for out in outcomes[1:]] == [True, True]

    def test_parallel_poison_quarantined_once(self, tmp_path):
        qdir = tmp_path / "quarantine"
        stats = SupervisorStats()
        outcomes, _ = supervised_map(
            _faulty_task,
            [("boom", "deterministic bug"), ("ok", 7)],
            workers=2,
            policy=SupervisorPolicy(
                retries=5,
                backoff_base=0.001,
                max_identical_failures=2,
                quarantine_dir=qdir,
            ),
            stats=stats,
            describe_task=_describe,
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert outcomes[1].ok
        assert stats.poison_cells == 1
        assert len(list(qdir.glob("poison-*.json"))) == 1

    def test_on_outcome_fires_once_per_task(self):
        seen = {}
        outcomes, _ = supervised_map(
            _faulty_task,
            [("ok", i) for i in range(5)],
            workers=2,
            on_outcome=lambda i, out: seen.setdefault(i, out),
        )
        assert sorted(seen) == [0, 1, 2, 3, 4]
        assert all(seen[i].value == i * 2 for i in range(5))


# ---------------------------------------------------------------------------
# a deliberate kill charges only the campaign that killed
# ---------------------------------------------------------------------------


class TestKillsSpareOtherCampaigns:
    """Campaign A kills the shared pool on purpose while campaign B has a
    cell running on it: B's cells are resubmitted without a charge."""

    def _run(self, tmp_path, policy, should_abort=None):
        log = tmp_path / "b-executions.log"
        killer = {}

        def campaign_a():
            killer["stats"] = SupervisorStats()
            killer["outcomes"], _ = supervised_map(
                _faulty_task,
                [("hang", 60.0), ("ok", 1)],
                workers=2,
                policy=policy,
                stats=killer["stats"],
                should_abort=should_abort,
            )

        thread = threading.Thread(target=campaign_a)
        thread.start()
        time.sleep(0.3)  # A's hang holds one worker; B gets the other
        stats = SupervisorStats()
        outcomes, _ = supervised_map(
            _faulty_task,
            [("log-sleep", (str(log), 0.4))] * 6,
            workers=2,
            stats=stats,
        )
        thread.join(60)
        # B lost a running cell to A's kill and ran it again ...
        assert len(log.read_text().splitlines()) > 6
        # ... without being charged for it.
        assert [(out.ok, out.attempts) for out in outcomes] == [(True, 1)] * 6
        assert stats.retries == stats.pool_rebuilds == stats.deadline_kills == 0
        return killer["outcomes"], killer["stats"]

    def test_deadline_kill(self, tmp_path):
        policy = SupervisorPolicy(retries=0, deadline_seconds=1.0)
        outcomes, stats = self._run(tmp_path, policy)
        assert outcomes[0].error_kind == ERROR_DEADLINE
        assert outcomes[1].ok
        assert stats.deadline_kills == 1 and stats.pool_rebuilds == 1

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_deadline_kill_reaches_a_retired_pool(self, tmp_path):
        """A resize retires the pool a hung cell runs on; its deadline
        still kills that worker instead of leaving it hung."""
        log = tmp_path / "hang.log"
        killer = {}

        def campaign_a():
            killer["outcomes"], _ = supervised_map(
                _faulty_task,
                [("log-sleep", (str(log), 60.0)), ("ok", 1)],
                workers=2,
                policy=SupervisorPolicy(retries=0, deadline_seconds=1.0),
            )

        thread = threading.Thread(target=campaign_a)
        thread.start()
        time.sleep(0.3)
        resized, _ = supervised_map(_faulty_task, [("ok", i) for i in range(3)], workers=3)
        thread.join(60)
        assert [out.value for out in resized] == [0, 2, 4]
        assert killer["outcomes"][0].error_kind == ERROR_DEADLINE
        (hung,) = {int(pid) for pid in log.read_text().split()}
        deadline = time.monotonic() + 10.0
        while _running(hung) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(hung)

    def test_abort(self, tmp_path):
        stop = threading.Event()
        timer = threading.Timer(1.3, stop.set)
        timer.start()
        try:
            outcomes, stats = self._run(
                tmp_path, SupervisorPolicy(), should_abort=stop.is_set
            )
        finally:
            timer.cancel()
        assert outcomes[0].error_kind == ERROR_ABORTED
        assert outcomes[1].ok
        assert stats.pool_rebuilds == 1


# ---------------------------------------------------------------------------
# cooperative abort (the service layer's cancellation/deadline hook)
# ---------------------------------------------------------------------------


class TestCooperativeAbort:
    def test_serial_abort_finalizes_pending_tasks(self):
        calls = []

        def abort_after_two():
            return len(calls) >= 2

        def task(x):
            calls.append(x)
            return x * 2

        outcomes, mode = supervised_map(
            task, [1, 2, 3, 4], workers=1, should_abort=abort_after_two
        )
        assert mode == "serial"
        assert len(outcomes) == 4
        assert [out.ok for out in outcomes] == [True, True, False, False]
        assert calls == [1, 2]  # nothing past the abort point executed
        for out in outcomes[2:]:
            assert out.error_kind == ERROR_ABORTED
            assert "JobCancelled" in out.error

    def test_serial_abort_false_is_a_noop(self):
        outcomes, _ = supervised_map(
            _faulty_task,
            [("ok", i) for i in range(3)],
            workers=1,
            should_abort=lambda: False,
        )
        assert all(out.ok for out in outcomes)

    def test_parallel_abort_mid_run_kills_pool_and_finalizes(self):
        import threading

        stop = threading.Event()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        try:
            start = time.monotonic()
            outcomes, mode = supervised_map(
                _faulty_task,
                [("sleep-ok", 60.0) for _ in range(3)],
                workers=2,
                should_abort=stop.is_set,
            )
        finally:
            timer.cancel()
        assert mode == "parallel"
        # Observed at the next poll boundary, not after the 60s sleeps.
        assert time.monotonic() - start < 30.0
        assert len(outcomes) == 3
        assert all(not out.ok for out in outcomes)
        assert all(out.error_kind == ERROR_ABORTED for out in outcomes)

    def test_parallel_abort_preset_returns_immediately(self):
        start = time.monotonic()
        outcomes, _ = supervised_map(
            _faulty_task,
            [("sleep-ok", 30.0) for _ in range(4)],
            workers=2,
            should_abort=lambda: True,
        )
        assert time.monotonic() - start < 20.0
        assert len(outcomes) == 4
        assert all(not out.ok for out in outcomes)
        assert all(out.error_kind == ERROR_ABORTED for out in outcomes)
