"""Unit tests for clock domains and statistics."""

import pytest

from repro.sim.clock import Clock, TICKS_PER_SECOND
from repro.sim.stats import Counter, Distribution, StatDomain


class TestClock:
    def test_gpu_clock_period(self):
        gpu = Clock(700e6)
        assert gpu.period_ticks == 1429  # ~1.43 ns in ps

    def test_cpu_clock_period(self):
        cpu = Clock(3e9)
        assert cpu.period_ticks == 333

    def test_cycle_tick_roundtrip(self):
        clock = Clock(1e9)
        assert clock.cycles_to_ticks(100) == 100_000
        assert clock.ticks_to_cycles(100_000) == pytest.approx(100)

    def test_seconds_conversion(self):
        clock = Clock(1e9)
        assert clock.seconds_to_ticks(1e-6) == TICKS_PER_SECOND // 1_000_000
        assert clock.ticks_to_seconds(TICKS_PER_SECOND) == pytest.approx(1.0)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            Clock(0)

    def test_fractional_cycles(self):
        clock = Clock(700e6)
        assert clock.cycles_to_ticks(0.5) == round(0.5 * 1429)


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_inc_rejected(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestDistribution:
    def test_summary(self):
        d = Distribution("lat")
        for sample in (1.0, 3.0, 2.0):
            d.record(sample)
        assert d.count == 3
        assert d.mean == pytest.approx(2.0)
        assert d.minimum == 1.0
        assert d.maximum == 3.0

    def test_empty_mean_is_zero(self):
        assert Distribution("x").mean == 0.0


class TestStatDomain:
    def test_counter_identity(self):
        dom = StatDomain("root")
        assert dom.counter("a") is dom.counter("a")

    def test_child_nesting_and_get(self):
        dom = StatDomain("root")
        dom.child("l2").counter("hits").inc(7)
        assert dom.get("l2.hits") == 7
        assert dom.get("l2.misses") == 0
        assert dom.get("nonexistent.path") == 0

    def test_ratio(self):
        dom = StatDomain("root")
        dom.counter("hits").inc(3)
        dom.counter("total").inc(4)
        assert dom.ratio("hits", "total") == pytest.approx(0.75)
        assert dom.ratio("hits", "zero") == 0.0

    def test_walk_paths(self):
        dom = StatDomain("sys")
        dom.counter("a").inc(1)
        dom.child("gpu").counter("ops").inc(2)
        paths = dict(dom.walk())
        assert paths["sys.a"] == 1
        assert paths["sys.gpu.ops"] == 2

    def test_as_dict_and_render(self):
        dom = StatDomain("sys")
        dom.counter("a").inc(1)
        assert dom.as_dict() == {"sys.a": 1}
        assert "sys.a" in dom.render()


class TestChartEdgeCases:
    def test_line_chart_single_x(self):
        from repro.analysis.ascii_chart import line_chart

        out = line_chart([5], {"s": [0.5]}, title="one")
        assert "one" in out

    def test_line_chart_all_none(self):
        from repro.analysis.ascii_chart import line_chart

        out = line_chart([1, 2], {"s": [None, None]})
        assert "s" in out
