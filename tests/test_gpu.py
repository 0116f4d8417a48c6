"""Unit tests for the GPU model via full small systems."""

import pytest

from repro.accel.gpu import GPUGeometry, KernelTrace, WavefrontOps
from repro.errors import AcceleratorDisabledError, ConfigurationError
from repro.sim.config import GPUThreading, SafetyMode
from repro.workloads.base import generate_trace

from tests.util import make_system, tiny_spec


def launch_system(safety=SafetyMode.BC_BCC, spec=None):
    system = make_system(safety)
    proc = system.new_process("t")
    system.attach_process(proc)
    trace = generate_trace(
        spec or tiny_spec(), system.kernel, proc, system.config.threading
    )
    return system, proc, trace


class TestKernelExecution:
    def test_kernel_completes_and_counts_ops(self):
        system, proc, trace = launch_system()
        ticks = system.run_kernel(proc, trace)
        assert ticks > 0
        assert system.gpu.mem_ops == trace.total_mem_ops
        assert system.gpu.blocked_ops == 0

    def test_runtime_scales_with_work(self):
        system1, proc1, trace1 = launch_system(spec=tiny_spec(ops_per_wavefront=20))
        t1 = system1.run_kernel(proc1, trace1)
        system2, proc2, trace2 = launch_system(spec=tiny_spec(ops_per_wavefront=200))
        t2 = system2.run_kernel(proc2, trace2)
        assert t2 > 2 * t1

    def test_compute_gaps_add_runtime(self):
        fast_sys, p1, t1 = launch_system(spec=tiny_spec(compute_gap_mean=1.0))
        slow_sys, p2, t2 = launch_system(spec=tiny_spec(compute_gap_mean=50.0))
        assert slow_sys.run_kernel(p2, t2) > fast_sys.run_kernel(p1, t1)

    def test_launch_requires_attached_asid(self):
        system, proc, trace = launch_system()
        with pytest.raises(ConfigurationError):
            system.gpu.run_kernel(proc.asid + 99, trace)

    def test_disabled_gpu_rejects_launch(self):
        system, proc, trace = launch_system()
        system.gpu.disable()
        with pytest.raises(AcceleratorDisabledError):
            system.gpu.run_kernel(proc.asid, trace)

    def test_trace_wider_than_gpu_rejected(self):
        system, proc, _trace = launch_system()  # moderately threaded: 1 CU
        wide = KernelTrace(name="wide", cu_wavefronts=[[], [], []])
        with pytest.raises(ConfigurationError):
            system.gpu.run_kernel(proc.asid, wide)

    def test_disable_mid_kernel_stops_issue(self):
        system, proc, trace = launch_system(spec=tiny_spec(ops_per_wavefront=500))
        done = system.gpu.launch(proc.asid, trace)
        system.engine.schedule(
            system.gpu_clock.cycles_to_ticks(50), system.gpu.disable
        )
        system.engine.run()
        assert done.triggered
        assert system.gpu.mem_ops < trace.total_mem_ops


class TestTraceProperties:
    def test_trace_shape_matches_threading(self):
        system = make_system(threading=GPUThreading.MODERATELY)
        proc = system.new_process("t")
        trace = generate_trace(
            tiny_spec(), system.kernel, proc, GPUThreading.MODERATELY
        )
        assert trace.num_cus == 1
        assert len(trace.cu_wavefronts[0]) == GPUThreading.MODERATELY.wavefronts_per_cu

    def test_total_counts(self):
        system = make_system()
        proc = system.new_process("t")
        spec = tiny_spec(ops_per_wavefront=10)
        trace = generate_trace(spec, system.kernel, proc, GPUThreading.MODERATELY)
        expected = GPUThreading.MODERATELY.num_cus * (
            GPUThreading.MODERATELY.wavefronts_per_cu * 10
        )
        assert trace.total_mem_ops == expected
        assert trace.total_compute_cycles > 0


class TestWavefrontOps:
    OPS = [(3, 0x1000, False), (0, 0x1080, True), (7, 0x2000, False)]

    def _ops(self):
        gaps, vaddrs, writes = zip(*self.OPS)
        return WavefrontOps(gaps, vaddrs, writes)

    def test_reads_as_op_tuples(self):
        ops = self._ops()
        assert len(ops) == 3
        assert list(ops) == self.OPS
        assert ops[1] == (0, 0x1080, True)
        assert ops[-1] == self.OPS[-1]
        assert ops[1:] == self.OPS[1:]
        assert all(type(write) is bool for _gap, _vaddr, write in ops)

    def test_equals_lists_and_copies(self):
        ops = self._ops()
        assert ops == self.OPS and self.OPS == ops
        assert ops == self._ops()
        assert ops != self.OPS[:2]
        assert ops[:2] != ops

    def test_columns_must_match(self):
        with pytest.raises(ValueError):
            WavefrontOps([0, 1], [0x1000], [False])

    def test_generated_trace_is_array_backed(self):
        _system, _proc, trace = launch_system()
        wavefronts = [wf for cu in trace.cu_wavefronts for wf in cu]
        assert wavefronts and all(type(wf) is WavefrontOps for wf in wavefronts)


class TestMaintenance:
    def test_flush_caches_forwards_to_path(self):
        system, proc, trace = launch_system()
        system.run_kernel(proc, trace)
        dirty_before = len(system.gpu_l2.dirty_lines())
        assert dirty_before > 0
        written = system.engine.run_process(system.gpu.flush_caches())
        assert written == dirty_before
        assert not system.gpu_l2.dirty_lines()

    def test_shootdown_invalidates_cu_tlbs(self):
        system, proc, trace = launch_system()
        system.run_kernel(proc, trace)
        assert any(t.occupancy for t in system.gpu_l1_tlbs)
        system.gpu.shootdown(proc.asid)
        assert all(t.occupancy == 0 for t in system.gpu_l1_tlbs)

    def test_drain_stalls_issue(self):
        system, proc, trace = launch_system(spec=tiny_spec(ops_per_wavefront=100))
        done = system.gpu.launch(proc.asid, trace)
        big_stall = system.gpu_clock.cycles_to_ticks(10_000)

        def stall_now():
            system.gpu.drain(big_stall)

        system.engine.schedule(10, stall_now)
        system.engine.run()
        assert system.engine.now >= big_stall

    def test_geometry_defaults(self):
        geom = GPUGeometry.highly_threaded()
        assert geom.num_cus == 8
        assert GPUGeometry.moderately_threaded().num_cus == 1


class TestBogusTraces:
    def test_unmapped_vaddr_blocks_op(self):
        """A trace touching unmapped virtual memory can't translate; the
        op is counted blocked and nothing crashes."""
        system, proc, _trace = launch_system()
        bogus = KernelTrace(
            name="bogus",
            cu_wavefronts=[[[(0, 0x7F00_0000, False), (0, 0x7F00_0000, True)]]],
        )
        system.gpu.run_kernel(proc.asid, bogus)
        assert system.gpu.blocked_ops == 2

    def test_wrong_asid_all_blocked(self):
        system, proc, trace = launch_system()
        other = system.new_process("other")
        system.kernel.attach_accelerator(other, system.gpu, sandboxed=False)
        # 'other' was never allowed at the ATS: every op is refused.
        small = KernelTrace(
            name="small", cu_wavefronts=[[[(0, 0x10000000, False)]]]
        )
        system.gpu.run_kernel(other.asid, small)
        assert system.gpu.blocked_ops >= 1

    def test_pure_compute_trace(self):
        system, proc, _trace = launch_system()
        compute_only = KernelTrace(
            name="compute", cu_wavefronts=[[[(100, None, False)] * 5]]
        )
        ticks = system.gpu.run_kernel(proc.asid, compute_only)
        assert ticks >= system.gpu_clock.cycles_to_ticks(500)
        assert system.gpu.mem_ops == 0
