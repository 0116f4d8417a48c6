"""Unit tests for workload specs and trace generation."""

import random
import weakref
from collections import deque

import pytest

from repro.mem.address import BLOCK_SIZE, PAGE_SIZE
from repro.sim.config import GPUThreading
from repro.workloads import base
from repro.workloads.base import WorkloadSpec, clear_trace_cache, generate_trace
from repro.workloads.registry import WORKLOADS, get_workload, workload_names

from tests.util import make_system, tiny_spec


class TestRegistry:
    def test_seven_workloads_in_paper_order(self):
        assert workload_names() == [
            "backprop",
            "bfs",
            "hotspot",
            "lud",
            "nn",
            "nw",
            "pathfinder",
        ]

    def test_get_workload(self):
        assert get_workload("bfs").name == "bfs"
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_all_specs_have_valid_mixtures(self):
        for spec in WORKLOADS.values():
            assert 0 <= spec.l1_reuse + spec.l2_reuse <= 1
            assert spec.cold_fraction >= 0
            assert spec.footprint_bytes > 0
            assert 0 <= spec.write_fraction <= 1

    def test_irregular_vs_regular_flavors(self):
        assert get_workload("bfs").pattern == "graph"
        assert get_workload("lud").pattern == "blocked"
        assert get_workload("hotspot").pattern == "stencil"
        assert get_workload("nw").pattern == "diagonal"


class TestSpec:
    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(l1_reuse=0.8, l2_reuse=0.5)

    def test_footprint_math(self):
        spec = tiny_spec(footprint_bytes=PAGE_SIZE * 10 + 1)
        assert spec.footprint_pages == 11
        assert spec.footprint_blocks == (PAGE_SIZE * 10 + 1) // BLOCK_SIZE


class TestTraceGeneration:
    def _gen(self, spec=None, seed=1, threading=GPUThreading.MODERATELY):
        system = make_system(threading=threading)
        proc = system.new_process("t")
        trace = generate_trace(
            spec or tiny_spec(), system.kernel, proc, threading, seed=seed
        )
        return system, proc, trace

    def test_deterministic_given_seed(self):
        _s1, _p1, t1 = self._gen(seed=42)
        _s2, _p2, t2 = self._gen(seed=42)
        assert t1.cu_wavefronts == t2.cu_wavefronts

    def test_different_seeds_differ(self):
        _s1, _p1, t1 = self._gen(seed=1)
        _s2, _p2, t2 = self._gen(seed=2)
        assert t1.cu_wavefronts != t2.cu_wavefronts

    def test_addresses_stay_within_mapped_footprint(self):
        spec = tiny_spec()
        system, proc, trace = self._gen(spec)
        area = next(iter(proc.areas.values()))
        lo = area.start_vaddr
        hi = lo + area.length
        for cu in trace.cu_wavefronts:
            for wf in cu:
                for _gap, vaddr, _w in wf:
                    if vaddr is not None:
                        assert lo <= vaddr < hi

    def test_addresses_are_block_aligned(self):
        _s, _p, trace = self._gen()
        for cu in trace.cu_wavefronts:
            for wf in cu:
                for _gap, vaddr, _w in wf:
                    assert vaddr % BLOCK_SIZE == 0

    def test_write_fraction_roughly_respected(self):
        _s, _p, trace = self._gen(tiny_spec(write_fraction=0.5, ops_per_wavefront=200))
        ops = [op for cu in trace.cu_wavefronts for wf in cu for op in wf]
        writes = sum(1 for _g, _v, w in ops if w)
        assert 0.4 < writes / len(ops) < 0.6

    def test_ops_scale(self):
        system = make_system()
        proc = system.new_process("t")
        trace = generate_trace(
            tiny_spec(ops_per_wavefront=100),
            system.kernel,
            proc,
            GPUThreading.MODERATELY,
            ops_scale=0.25,
        )
        per_wf = len(trace.cu_wavefronts[0][0])
        assert per_wf == 25

    @pytest.mark.parametrize(
        "pattern", ["stream", "random", "graph", "blocked", "stencil", "diagonal", "rows"]
    )
    def test_every_pattern_generates(self, pattern):
        _s, _p, trace = self._gen(tiny_spec(pattern=pattern))
        assert trace.total_mem_ops > 0

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            self._gen(tiny_spec(pattern="mystery"))

    def test_cpu_touch_populates_pages(self):
        system, proc, trace = self._gen()
        # Eager mmap allocated frames; the CPU header write is visible.
        area = next(iter(proc.areas.values()))
        data = system.kernel.proc_read(proc, area.start_vaddr, 8)
        assert data == (0).to_bytes(8, "little")

    def test_locality_knob_changes_reuse(self):
        """Higher l1_reuse must produce measurably more address reuse."""

        def distinct_fraction(spec):
            _s, _p, trace = self._gen(spec)
            addrs = [
                v
                for cu in trace.cu_wavefronts
                for wf in cu
                for _g, v, _w in wf
            ]
            return len(set(addrs)) / len(addrs)

        local = distinct_fraction(tiny_spec(l1_reuse=0.9, l2_reuse=0.0))
        cold = distinct_fraction(tiny_spec(l1_reuse=0.0, l2_reuse=0.0))
        assert local < cold


# -- generate_trace against a reference loop of plain RNG calls ---------------------

PATTERNS = ["stream", "random", "graph", "blocked", "stencil", "diagonal", "rows"]


class ReferenceStream:
    """One wavefront's address stream drawn the plain way: ``rng.randrange``
    for every index, ``rng.expovariate`` for graph run lengths, and an
    if-chain over the pattern name at every cold draw."""

    def __init__(self, spec, base_vaddr, wf_index, total_wf, cu, rng):
        self.spec, self.base, self.rng = spec, base_vaddr, rng
        self.total = max(1, spec.footprint_blocks)
        self.slice_blocks = max(1, self.total // max(1, total_wf))
        self.slice_start = (wf_index * self.slice_blocks) % self.total
        self.cursor = rng.randrange(self.slice_blocks) if self.slice_blocks > 1 else 0
        self.region_blocks = max(1, spec.l2_region_bytes // BLOCK_SIZE)
        self.region_start = (cu * self.region_blocks) % self.total
        self.recent = deque(
            (self.slice_start + self.cursor + i) % self.total
            for i in range(spec.recent_window)
        )
        self.pattern_base = rng.randrange(self.total)
        self.tile_index = self.tile_pos = self.tile_pass = 0
        self.run_remaining = self.run_block = 0
        self.step = 0

    def next_address(self):
        spec, rng, recent = self.spec, self.rng, self.recent
        draw = rng.random()
        if recent and draw < spec.l1_reuse:
            block = recent[rng.randrange(len(recent))]
        elif draw < spec.l1_reuse + spec.l2_reuse:
            block = self.region_start + rng.randrange(self.region_blocks)
        else:
            block = self.next_cold()
            recent.append(block)
            if len(recent) > spec.recent_window:
                recent.popleft()
        return self.base + (block % self.total) * BLOCK_SIZE

    def next_cold(self):
        spec, pattern = self.spec, self.spec.pattern
        if pattern == "stream":
            block = self.slice_start + (self.cursor % self.slice_blocks)
            self.cursor += 1
            return block
        if pattern == "random":
            return self.rng.randrange(self.total)
        if pattern == "graph":
            if self.run_remaining <= 0:
                self.run_block = self.rng.randrange(self.total)
                self.run_remaining = max(
                    1, int(self.rng.expovariate(1.0 / spec.run_length))
                )
            self.run_remaining -= 1
            block, self.run_block = self.run_block, self.run_block + 1
            return block
        if pattern == "blocked":
            block = self.pattern_base + self.tile_index * spec.tile_blocks + self.tile_pos
            self.tile_pos += 1
            if self.tile_pos >= spec.tile_blocks:
                self.tile_pos = 0
                self.tile_pass += 1
                if self.tile_pass >= spec.tile_passes:
                    self.tile_pass = 0
                    self.tile_index += 1
            return block
        row_blocks = spec.row_blocks
        if pattern == "stencil":
            row, col = divmod(self.step, row_blocks)
            self.step += 1
            return self.pattern_base + max(0, row - (self.step % 3)) * row_blocks + col
        if pattern == "diagonal":
            diag, pos = divmod(self.step, row_blocks)
            self.step += 1
            if self.step % 2:
                diag = max(0, diag - 1)
            return self.pattern_base + pos * row_blocks + (diag % row_blocks)
        assert pattern == "rows"
        window_blocks = row_blocks * spec.row_window
        block = self.pattern_base + self.step % window_blocks
        self.step += 1
        if self.step % window_blocks == 0:
            self.pattern_base += row_blocks
        return block


def reference_trace(spec, base_vaddr, threading, seed, ops_scale=1.0):
    """``generate_trace``'s wavefronts from :class:`ReferenceStream` and
    ``rng.expovariate`` gaps; per op: gap, address, store coin."""
    rng = random.Random(seed)
    total_wf = threading.num_cus * threading.wavefronts_per_cu
    ops_per_wf = max(1, int(spec.ops_per_wavefront * ops_scale))
    cu_wavefronts, wf_index = [], 0
    for cu in range(threading.num_cus):
        wavefronts = []
        for _ in range(threading.wavefronts_per_cu):
            stream = ReferenceStream(spec, base_vaddr, wf_index, total_wf, cu, rng)
            ops = []
            for _ in range(ops_per_wf):
                gap = 0
                if spec.compute_gap_mean > 0:
                    gap = int(rng.expovariate(1.0 / spec.compute_gap_mean))
                vaddr = stream.next_address()
                ops.append((gap, vaddr, rng.random() < spec.write_fraction))
            wavefronts.append(ops)
            wf_index += 1
        cu_wavefronts.append(wavefronts)
    return cu_wavefronts


class TestTraceMatchesReferenceLoop:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_every_pattern_draws_like_plain_rng_calls(self, pattern):
        spec = tiny_spec(pattern=pattern, run_length=3, tile_blocks=8, row_blocks=16)
        self._check(spec, seed=7)

    @pytest.mark.parametrize("overrides", [
        dict(compute_gap_mean=0.0),
        dict(recent_window=0, l1_reuse=0.6),
        dict(l1_reuse=0.0, l2_reuse=0.0, pattern="graph"),
        dict(footprint_bytes=BLOCK_SIZE, l2_region_bytes=BLOCK_SIZE),
    ], ids=["no-gaps", "empty-window", "all-cold", "one-block"])
    def test_edge_specs_draw_like_plain_rng_calls(self, overrides):
        self._check(tiny_spec(**overrides), seed=3)

    def test_rodinia_spec_draws_like_plain_rng_calls(self):
        self._check(get_workload("bfs"), seed=11, ops_scale=0.05)

    @staticmethod
    def _check(spec, seed, ops_scale=1.0):
        clear_trace_cache()
        threading = GPUThreading.MODERATELY
        system = make_system(threading=threading)
        proc = system.new_process("t")
        trace = generate_trace(
            spec, system.kernel, proc, threading, seed=seed, ops_scale=ops_scale
        )
        base_vaddr = next(iter(proc.areas.values())).start_vaddr
        expected = reference_trace(spec, base_vaddr, threading, seed, ops_scale)
        assert trace.cu_wavefronts == expected
        assert all(
            type(write) is bool
            for cu in trace.cu_wavefronts
            for wf in cu
            for _gap, _vaddr, write in wf
        )


class TestTraceMemo:
    def _gen(self, seed):
        system = make_system()
        proc = system.new_process("t")
        return generate_trace(
            tiny_spec(), system.kernel, proc, GPUThreading.MODERATELY, seed=seed
        )

    def test_distinct_seeds_leave_one_trace_held(self):
        clear_trace_cache()
        for seed in (1, 2, 3):
            self._gen(seed)
        assert len(base._TRACE_MEMO) == 1

    def test_miss_frees_the_old_trace_before_building(self, monkeypatch):
        """At most one generated trace is alive at any time."""
        clear_trace_cache()
        old = weakref.ref(self._gen(1))
        assert old() is not None  # the memo holds it
        dead_at_first_stream = []
        original = base._AddressStream.__init__

        def spy(stream, *args, **kwargs):
            if not dead_at_first_stream:
                dead_at_first_stream.append(old() is None)
            original(stream, *args, **kwargs)

        monkeypatch.setattr(base._AddressStream, "__init__", spy)
        self._gen(2)
        assert dead_at_first_stream == [True]

    def test_consecutive_same_seed_cells_hit(self):
        clear_trace_cache()
        first = self._gen(5)
        assert self._gen(5) is first
        self._gen(6)
        assert self._gen(5) is not first
