"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import (
    BandwidthServer,
    Engine,
    Event,
    Resource,
    SimulationError,
)
from repro.sim.clock import TICKS_PER_SECOND


class TestScheduling:
    def test_schedule_runs_in_time_order(self, engine):
        order = []
        engine.schedule(20, lambda: order.append("b"))
        engine.schedule(10, lambda: order.append("a"))
        engine.schedule(30, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 30

    def test_same_time_fifo(self, engine):
        order = []
        for tag in "abc":
            engine.schedule(5, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_schedule_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self, engine):
        engine.schedule(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(5, lambda: None)

    def test_run_until_stops_early(self, engine):
        fired = []
        engine.schedule(100, lambda: fired.append(1))
        engine.run(until=50)
        assert not fired
        assert engine.now == 50
        engine.run()
        assert fired == [1]

    def test_run_until_advances_clock_without_events(self, engine):
        engine.run(until=123)
        assert engine.now == 123

    def test_pending_events_counts_queue(self, engine):
        engine.schedule(1, lambda: None)
        engine.schedule(2, lambda: None)
        assert engine.pending_events == 2


class TestProcesses:
    def test_process_yield_delay(self, engine):
        def proc():
            yield 10
            yield 5
            return "done"

        result = engine.run_process(proc())
        assert result == "done"
        assert engine.now == 15

    def test_process_waits_on_event(self, engine):
        evt = engine.event()

        def waiter():
            value = yield evt
            return value

        proc = engine.process(waiter())
        engine.schedule(42, lambda: evt.succeed("payload"))
        engine.run()
        assert proc.triggered
        assert proc.value == "payload"
        assert engine.now == 42

    def test_process_waits_on_process(self, engine):
        def child():
            yield 7
            return 99

        def parent():
            value = yield engine.process(child())
            return value + 1

        assert engine.run_process(parent()) == 100

    def test_waiting_on_triggered_event_resumes_immediately(self, engine):
        evt = engine.event()
        evt.succeed("x")

        def waiter():
            value = yield evt
            return value

        assert engine.run_process(waiter()) == "x"

    def test_event_double_trigger_rejected(self, engine):
        evt = engine.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_negative_yield_rejected(self, engine):
        def proc():
            yield -5

        engine.process(proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_unsupported_yield_rejected(self, engine):
        def proc():
            yield "nope"

        engine.process(proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_timeout_event(self, engine):
        def proc():
            yield engine.timeout(33)
            return engine.now

        assert engine.run_process(proc()) == 33

    def test_all_of_waits_for_all(self, engine):
        def child(delay, value):
            yield delay
            return value

        def parent():
            procs = [engine.process(child(d, d * 10)) for d in (5, 15, 10)]
            results = yield engine.all_of(procs)
            return results

        assert engine.run_process(parent()) == [50, 150, 100]
        assert engine.now == 15

    def test_all_of_empty_triggers_immediately(self, engine):
        def parent():
            results = yield engine.all_of([])
            return results

        assert engine.run_process(parent()) == []

    def test_run_process_detects_deadlock(self, engine):
        evt = engine.event()  # never triggered

        def stuck():
            yield evt

        with pytest.raises(SimulationError, match="deadlock"):
            engine.run_process(stuck())

    def test_multiple_waiters_all_resumed(self, engine):
        evt = engine.event()
        got = []

        def waiter(tag):
            value = yield evt
            got.append((tag, value))

        engine.process(waiter("a"))
        engine.process(waiter("b"))
        engine.schedule(5, lambda: evt.succeed(7))
        engine.run()
        assert sorted(got) == [("a", 7), ("b", 7)]


class TestBandwidthServer:
    def test_unloaded_request_costs_service_time(self, engine):
        server = BandwidthServer(engine, bytes_per_second=1000, ticks_per_second=1000)
        # 1 byte per tick.
        assert server.request(10) == 10

    def test_queueing_delay_accumulates(self, engine):
        server = BandwidthServer(engine, bytes_per_second=1000, ticks_per_second=1000)
        assert server.request(10) == 10
        # Second request queues behind the first.
        assert server.request(10) == 20

    def test_idle_period_resets_queue(self, engine):
        server = BandwidthServer(engine, bytes_per_second=1000, ticks_per_second=1000)
        server.request(10)
        engine.schedule(100, lambda: None)
        engine.run()
        assert server.request(10) == 10

    def test_utilization(self, engine):
        server = BandwidthServer(engine, bytes_per_second=1000, ticks_per_second=1000)
        server.request(50)
        assert server.utilization(100) == pytest.approx(0.5)
        assert server.utilization(0) == 0.0

    def test_bytes_served_accumulates(self, engine):
        server = BandwidthServer(engine, bytes_per_second=1000, ticks_per_second=1000)
        server.request(3)
        server.request(4)
        assert server.bytes_served == 7

    def test_invalid_bandwidth_rejected(self, engine):
        with pytest.raises(SimulationError):
            BandwidthServer(engine, bytes_per_second=0, ticks_per_second=1000)

    def test_negative_transfer_rejected(self, engine):
        server = BandwidthServer(engine, bytes_per_second=1000, ticks_per_second=1000)
        with pytest.raises(SimulationError):
            server.request(-1)

    def test_saturation_makes_runtime_bandwidth_bound(self, engine):
        """Offered load far above capacity => finish time ~ total/rate."""
        server = BandwidthServer(
            engine, bytes_per_second=TICKS_PER_SECOND, ticks_per_second=TICKS_PER_SECOND
        )  # 1 byte/tick
        total = 0
        for _ in range(100):
            total = server.request(100)
        assert total == pytest.approx(100 * 100, rel=0.01)


class TestResource:
    def test_acquire_release(self, engine):
        res = Resource(engine, capacity=2)

        def worker(log, tag):
            yield res.acquire()
            log.append(("start", tag, engine.now))
            yield 10
            res.release()
            log.append(("end", tag, engine.now))

        log = []
        for tag in range(3):
            engine.process(worker(log, tag))
        engine.run()
        # Third worker cannot start until one of the first two releases.
        starts = {tag: t for evt, tag, t in log if evt == "start"}
        assert starts[0] == 0 and starts[1] == 0 and starts[2] == 10

    def test_release_without_acquire_rejected(self, engine):
        res = Resource(engine, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_capacity_validation(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, capacity=0)


class TestEngineResume:
    def test_run_until_then_resume(self, engine):
        log = []

        def proc():
            yield 10
            log.append(engine.now)
            yield 10
            log.append(engine.now)

        engine.process(proc())
        engine.run(until=15)
        assert log == [10]
        engine.run()
        assert log == [10, 20]

    def test_engine_not_reentrant(self, engine):
        from repro.sim.engine import SimulationError

        def bad():
            engine.run()
            yield 1

        engine.process(bad())
        with pytest.raises(SimulationError, match="reentrant"):
            engine.run()

    def test_all_of_mixed_events_and_processes(self, engine):
        evt = engine.event()

        def child():
            yield 5
            return "proc"

        def parent():
            results = yield engine.all_of([engine.process(child()), evt])
            return results

        proc = engine.process(parent())
        engine.schedule(3, lambda: evt.succeed("evt"))
        engine.run()
        assert proc.value == ["proc", "evt"]


class TestCombinatorEdgeCases:
    """all_of / any_of / deadline via direct waiter callbacks (no helper
    Process per event): empty input, already-triggered, value propagation."""

    def test_all_of_already_triggered_events(self, engine):
        e1, e2 = engine.event(), engine.event()
        e1.succeed("a")
        e2.succeed("b")
        done = engine.all_of([e1, e2])

        def waiter():
            return (yield done)

        assert engine.run_process(waiter()) == ["a", "b"]

    def test_all_of_preserves_input_order_not_trigger_order(self, engine):
        slow = engine.timeout(50)
        fast = engine.timeout(5)

        def tag(evt, value):
            got = yield evt
            assert got is None
            return value

        p_slow = engine.process(tag(slow, "slow"))
        p_fast = engine.process(tag(fast, "fast"))
        done = engine.all_of([p_slow, p_fast])

        def waiter():
            return (yield done)

        assert engine.run_process(waiter()) == ["slow", "fast"]

    def test_any_of_empty_triggers_immediately_with_none(self, engine):
        done = engine.any_of([])
        assert done.triggered
        assert done.value is None

    def test_any_of_propagates_winner_value(self, engine):
        late = engine.event()
        engine.schedule(100, lambda: late.succeed("late"))
        early = engine.event()
        engine.schedule(10, lambda: early.succeed("early"))
        done = engine.any_of([late, early])

        def waiter():
            return (yield done)

        assert engine.run_process(waiter()) == "early"
        assert engine.now == 100  # the loser still fires; done stays one-shot
        assert done.value == "early"

    def test_any_of_with_already_triggered_event_wins(self, engine):
        ready = engine.event()
        ready.succeed(42)
        pending = engine.event()
        done = engine.any_of([pending, ready])

        def waiter():
            return (yield done)

        assert engine.run_process(waiter()) == 42

    def test_deadline_event_wins_propagates_value(self, engine):
        evt = engine.event()
        engine.schedule(10, lambda: evt.succeed("payload"))

        def waiter():
            return (yield engine.deadline(evt, 1000))

        assert engine.run_process(waiter()) == "payload"

    def test_deadline_timeout_wins_returns_sentinel(self, engine):
        from repro.sim.engine import TIMEOUT

        evt = engine.event()  # never triggered

        def waiter():
            return (yield engine.deadline(evt, 250))

        assert engine.run_process(waiter()) is TIMEOUT
        assert engine.now == 250

    def test_deadline_on_already_triggered_event(self, engine):
        evt = engine.event()
        evt.succeed("done-before")

        def waiter():
            return (yield engine.deadline(evt, 99))

        assert engine.run_process(waiter()) == "done-before"
        assert engine.now == 99  # the (unanswered) timer still drains

    def test_deadline_negative_timeout_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.deadline(engine.event(), -1)

    def test_event_mixed_callback_and_process_waiters(self, engine):
        evt = engine.event()
        seen = []
        evt._add_callback(lambda value: seen.append(("cb", value)))

        def waiter():
            seen.append(("proc", (yield evt)))

        engine.process(waiter())
        engine.schedule(5, lambda: evt.succeed("v"))
        engine.run()
        assert seen == [("cb", "v"), ("proc", "v")]


class TestResourceFifoOrder:
    def test_waiters_granted_in_fifo_order(self, engine):
        res = Resource(engine, capacity=1)
        grants = []

        def holder():
            yield res.acquire()
            yield 10
            res.release()

        def contender(tag):
            yield res.acquire()
            grants.append((tag, engine.now))
            yield 5
            res.release()

        engine.process(holder())
        for tag in ["first", "second", "third", "fourth"]:
            engine.process(contender(tag))
        engine.run()
        assert [tag for tag, _ in grants] == ["first", "second", "third", "fourth"]
        times = [t for _, t in grants]
        assert times == sorted(times)


class TestBandwidthServerIntegerArithmetic:
    """Pin exact delays: the integer-picosecond accounting must reproduce
    the float implementation's delays on the paper's 180 GB/s channel and
    stay exact over long runs."""

    def test_known_sequence_delays_pinned(self, engine):
        server = BandwidthServer(engine, 180e9, TICKS_PER_SECOND)
        # 180 GB/s at 1 tick/ps -> 50/9 ticks per byte; a 128 B block
        # takes 6400/9 = 711.1 ticks of service.
        delays = [server.request(128) for _ in range(5)]
        assert delays == [711, 1422, 2133, 2844, 3556]
        engine.schedule(10000, lambda: None)
        engine.run()
        assert server.request(128) == 711  # idle channel: queue fully reset
        assert server.request(64) == 1067  # 711.1 + 355.6 rounds to 1067
        assert server.bytes_served == 832

    def test_accumulation_is_exact_over_long_runs(self, engine):
        from fractions import Fraction

        server = BandwidthServer(engine, 7e9, TICKS_PER_SECOND)
        total = Fraction(0)
        per_byte = Fraction(TICKS_PER_SECOND) / Fraction(7e9)
        for _ in range(10_000):
            server.request(96)
            total += 96 * per_byte
        # The internal accumulator equals the exact rational sum — float
        # accumulation would have drifted off this after ~10k adds.
        assert Fraction(server._free_num, server._tick_den) == total

    def test_utilization_unchanged_by_integer_accounting(self, engine):
        server = BandwidthServer(engine, 180e9, TICKS_PER_SECOND)
        for _ in range(3):
            server.request(128)
        # busy_ticks keeps the original float accumulation (3 * 711.1...)
        assert server.busy_ticks == pytest.approx(2133.3333333, rel=1e-9)
        assert server.utilization(4000) == pytest.approx(0.53333333, rel=1e-6)
        assert server.utilization(0) == 0.0
