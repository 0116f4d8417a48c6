"""Coverage for the memory paths' maintenance hooks and workload pattern statistics."""

import pytest

from repro.core.permissions import Perm
from repro.mem.address import BLOCK_SIZE, PAGE_SIZE
from repro.sim.config import GPUThreading, SafetyMode
from repro.workloads.base import WorkloadSpec, generate_trace

from tests.util import make_system, tiny_spec


class TestPathAdapters:
    def test_full_iommu_adapter_maintenance_is_noop(self):
        system = make_system(SafetyMode.FULL_IOMMU)
        path = system.gpu.path
        path.shootdown(1)  # nothing to invalidate, must not raise
        assert system.engine.run_process(path.flush_caches()) == 0
        assert system.engine.run_process(path.flush_pages([1, 2])) == 0

    def test_capi_adapter_selective_flush(self):
        system = make_system(SafetyMode.CAPI_LIKE)
        proc = system.new_process("p")
        system.attach_process(proc)
        vaddr = system.kernel.mmap(proc, 2, Perm.RW)
        ppn = proc.page_table.translate(vaddr).ppn
        system.engine.run_process(
            system.capi.mem_op(0, proc.asid, vaddr, True, b"z" * BLOCK_SIZE)
        )
        written = system.engine.run_process(system.gpu.path.flush_pages([ppn]))
        assert written == 1
        assert system.phys.read(ppn * PAGE_SIZE, 1) == b"z"

    def test_cached_path_selective_flush(self):
        system = make_system(SafetyMode.BC_BCC)
        proc = system.new_process("p")
        system.attach_process(proc)
        vaddr = system.kernel.mmap(proc, 2, Perm.RW)
        ppn = proc.page_table.translate(vaddr).ppn
        system.engine.run_process(
            system.gpu.path.mem_op(0, proc.asid, vaddr, True, b"q" * BLOCK_SIZE)
        )
        written = system.engine.run_process(system.gpu.path.flush_pages([ppn]))
        assert written >= 1
        assert system.phys.read(ppn * PAGE_SIZE, 1) == b"q"


def _pages_touched(spec, seed=3):
    system = make_system()
    proc = system.new_process("t")
    trace = generate_trace(
        spec, system.kernel, proc, GPUThreading.MODERATELY, seed=seed
    )
    return {
        vaddr >> 12
        for cu in trace.cu_wavefronts
        for wf in cu
        for _g, vaddr, _w in wf
        if vaddr is not None
    }


class TestPatternStatistics:
    def test_graph_jumps_touch_more_pages_than_stream(self):
        """Irregular patterns spread across the footprint; streams don't."""
        base = dict(
            footprint_bytes=8 * 1024 * 1024,
            ops_per_wavefront=100,
            l1_reuse=0.0,
            l2_reuse=0.0,
            write_fraction=0.0,
        )
        stream_pages = _pages_touched(tiny_spec(pattern="stream", **base))
        graph_pages = _pages_touched(
            tiny_spec(pattern="graph", run_length=4, **base)
        )
        assert len(graph_pages) > 2 * len(stream_pages)

    def test_rows_pattern_stays_in_window(self):
        """pathfinder-style: a sliding window touches few pages at a time."""
        spec = tiny_spec(
            pattern="rows",
            row_blocks=32,
            row_window=2,
            ops_per_wavefront=64,
            l1_reuse=0.0,
            l2_reuse=0.0,
            footprint_bytes=8 * 1024 * 1024,
        )
        pages = _pages_touched(spec)
        # 16 wavefronts x (64 blocks window + slide) at 32 blocks/page:
        # far fewer pages than ops.
        assert len(pages) < 16 * 12

    def test_blocked_pattern_reuses_tiles(self):
        spec = tiny_spec(
            pattern="blocked",
            tile_blocks=16,
            tile_passes=4,
            ops_per_wavefront=128,
            l1_reuse=0.0,
            l2_reuse=0.0,
        )
        system = make_system()
        proc = system.new_process("t")
        trace = generate_trace(spec, system.kernel, proc, GPUThreading.MODERATELY)
        addrs = [
            v for cu in trace.cu_wavefronts for wf in cu for _g, v, _w in wf
        ]
        # 4 passes over each tile: every address appears ~4 times.
        assert len(set(addrs)) <= len(addrs) / 3

    def test_stencil_revisits_rows(self):
        spec = tiny_spec(
            pattern="stencil",
            row_blocks=16,
            ops_per_wavefront=96,
            l1_reuse=0.0,
            l2_reuse=0.0,
        )
        system = make_system()
        proc = system.new_process("t")
        trace = generate_trace(spec, system.kernel, proc, GPUThreading.MODERATELY)
        addrs = [
            v for cu in trace.cu_wavefronts for wf in cu for _g, v, _w in wf
        ]
        assert len(set(addrs)) < len(addrs)  # vertical-neighbor reuse
