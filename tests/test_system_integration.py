"""Integration tests: full systems across all five configurations."""

import gc
import weakref

import pytest

from repro.core.permissions import Perm
from repro.mem.address import PAGE_SHIFT
from repro.sim import runner
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import run_single, runtime_overhead
from repro.workloads.base import generate_trace

from tests.util import make_system, tiny_spec

ALL_MODES = list(SafetyMode)


class TestAllConfigurationsRun:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
    def test_kernel_runs_clean(self, mode):
        system = make_system(mode)
        proc = system.new_process("w")
        system.attach_process(proc)
        trace = generate_trace(tiny_spec(), system.kernel, proc, system.config.threading)
        ticks = system.run_kernel(proc, trace)
        assert ticks > 0
        assert system.gpu.blocked_ops == 0
        assert len(system.kernel.violation_log) == 0

    @pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
    def test_detach_after_kernel(self, mode):
        system = make_system(mode)
        proc = system.new_process("w")
        system.attach_process(proc)
        trace = generate_trace(tiny_spec(), system.kernel, proc, system.config.threading)
        system.run_kernel(proc, trace)
        system.detach_process(proc)
        if mode.uses_border_control:
            assert not system.border_control.active

    def test_structures_match_safety_mode(self):
        for mode in ALL_MODES:
            system = make_system(mode)
            assert bool(system.gpu_l1_caches) == mode.has_accel_l1_cache
            assert (system.border_port is not None) == mode.uses_border_control
            assert (system.full_iommu is not None) == (mode is SafetyMode.FULL_IOMMU)
            assert (system.capi is not None) == (mode is SafetyMode.CAPI_LIKE)
            if mode is SafetyMode.BC_BCC:
                assert system.border_control.has_bcc
            if mode is SafetyMode.BC_NO_BCC:
                assert not system.border_control.has_bcc


class TestDataFlowEndToEnd:
    def test_gpu_writes_reach_memory_after_completion(self):
        """CPU writes data, GPU kernel stores over it, completion flush
        makes GPU stores visible in physical memory."""
        system = make_system(SafetyMode.BC_BCC)
        proc = system.new_process("w")
        system.attach_process(proc)
        spec = tiny_spec(write_fraction=1.0, l1_reuse=0.0, l2_reuse=0.0)
        trace = generate_trace(spec, system.kernel, proc, system.config.threading)
        system.run_kernel(proc, trace)
        system.detach_process(proc)  # Fig. 3e: flush + zero
        area = next(iter(proc.areas.values()))
        # Find at least one GPU store payload in memory (payload encodes
        # the vaddr it was stored at).
        found = False
        for cu in trace.cu_wavefronts:
            for wf in cu:
                for _g, vaddr, w in wf:
                    if w:
                        paddr = system.kernel._translate_for_kernel(proc, vaddr)
                        data = system.phys.read(paddr, 8)
                        if int.from_bytes(data, "little") == vaddr:
                            found = True
        assert found

    def test_border_checks_happen_only_in_bc_modes(self):
        for mode in ALL_MODES:
            system = make_system(mode)
            proc = system.new_process("w")
            system.attach_process(proc)
            trace = generate_trace(
                tiny_spec(), system.kernel, proc, system.config.threading
            )
            system.run_kernel(proc, trace)
            if mode.uses_border_control:
                assert system.border_checks() > 0
            else:
                assert system.border_checks() == 0


class TestSafetyOrdering:
    """The paper's qualitative performance ordering on a tiny workload."""

    def test_full_iommu_slowest_bcc_near_baseline(self):
        spec = tiny_spec(ops_per_wavefront=120)
        results = {}
        for mode in ALL_MODES:
            system = make_system(mode)
            proc = system.new_process("w")
            system.attach_process(proc)
            trace = generate_trace(
                spec, system.kernel, proc, system.config.threading, seed=7
            )
            results[mode] = system.run_kernel(proc, trace)
        base = results[SafetyMode.ATS_ONLY]
        assert results[SafetyMode.FULL_IOMMU] > base
        assert results[SafetyMode.FULL_IOMMU] > results[SafetyMode.BC_BCC]
        # BCC within a few percent of the unsafe baseline.
        assert results[SafetyMode.BC_BCC] < base * 1.15


class TestRunner:
    def test_run_single_smoke(self):
        result = run_single(
            "bfs", SafetyMode.BC_BCC, GPUThreading.MODERATELY, ops_scale=0.05
        )
        assert result.gpu_cycles > 0
        assert result.mem_ops > 0
        assert result.border_checks > 0
        assert 0 <= result.bcc_miss_ratio <= 1
        assert 0 <= result.l1_hit_ratio <= 1

    def test_runtime_overhead_math(self):
        base = run_single(
            "bfs", SafetyMode.ATS_ONLY, GPUThreading.MODERATELY, ops_scale=0.05
        )
        same = runtime_overhead(base, base)
        assert same == 0.0

    def test_record_border_trace(self):
        result = run_single(
            "bfs",
            SafetyMode.BC_BCC,
            GPUThreading.MODERATELY,
            ops_scale=0.05,
            record_border=True,
        )
        assert result.border_trace
        assert len(result.border_trace) == result.border_checks

    def test_downgrade_injection(self):
        result = run_single(
            "bfs",
            SafetyMode.BC_BCC,
            GPUThreading.MODERATELY,
            ops_scale=0.2,
            downgrade_interval_cycles=500,
        )
        assert result.downgrades > 0

    def test_multiprocess_gpu_union(self):
        """Two processes on one accelerator: the union rule (§3.3)."""
        system = make_system(SafetyMode.BC_BCC)
        p1 = system.new_process("a")
        p2 = system.new_process("b")
        system.attach_process(p1)
        system.attach_process(p2)
        v1 = system.kernel.mmap(p1, 1, Perm.R)
        v2 = system.kernel.mmap(p2, 1, Perm.W)
        ppn1 = p1.page_table.translate(v1).ppn
        ppn2 = p2.page_table.translate(v2).ppn
        system.engine.run_process(system.ats.translate("gpu0", p1.asid, v1 >> 12))
        system.engine.run_process(system.ats.translate("gpu0", p2.asid, v2 >> 12))
        bc = system.border_control
        assert bc.use_count == 2
        assert bc.check(ppn1 << PAGE_SHIFT, False).allowed
        assert not bc.check(ppn1 << PAGE_SHIFT, True).allowed
        assert bc.check(ppn2 << PAGE_SHIFT, True).allowed


class TestCellLeavesNoCyclicGarbage:
    """``run_single`` closes its System, so with the cyclic GC off the
    whole simulated machine is freed by reference counting on return."""

    CASES = [(mode, None) for mode in ALL_MODES] + [(SafetyMode.BC_BCC, 250)]

    @pytest.mark.parametrize(
        "mode,interval",
        CASES,
        ids=[m.value + (f"-downgrade{i}" if i else "") for m, i in CASES],
    )
    def test_finished_cell_is_freed(self, mode, interval, monkeypatch):
        built = []

        class RecordingSystem(runner.System):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runner, "System", RecordingSystem)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run_single(
                "bfs",
                mode,
                GPUThreading.MODERATELY,
                ops_scale=0.05,
                downgrade_interval_cycles=interval,
            )
            system = built.pop()
            parts = {
                "System": system,
                "Kernel": system.kernel,
                "GPU": system.gpu,
                "Engine": system.engine,
            }
            caches = system.gpu_l1_caches + (
                [system.gpu_l2] if system.gpu_l2 is not None else []
            )
            parts.update((cache.config.name, cache) for cache in caches)
            refs = {name: weakref.ref(obj) for name, obj in parts.items()}
            del system, parts, caches
            alive = sorted(name for name, ref in refs.items() if ref() is not None)
        finally:
            if was_enabled:
                gc.enable()
        assert alive == []


class TestFrontEndViolationReporting:
    def test_full_iommu_refusal_notifies_os(self):
        """A rogue virtual access in full-IOMMU mode reaches the OS's
        violation policy, just like a Border Control violation."""
        system = make_system(SafetyMode.FULL_IOMMU)
        proc = system.new_process("p")
        system.attach_process(proc)
        vaddr = system.kernel.mmap(proc, 1, Perm.R)
        # A store to a read-only page through the checking IOMMU.
        result = system.engine.run_process(
            system.full_iommu.mem_op(0, proc.asid, vaddr, True, b"x" * 128)
        )
        assert result is None
        assert len(system.kernel.violation_log) == 1
        assert not proc.alive  # default policy kills the process

    def test_capi_refusal_notifies_os(self):
        system = make_system(SafetyMode.CAPI_LIKE)
        proc = system.new_process("p")
        system.attach_process(proc)
        result = system.engine.run_process(
            system.capi.mem_op(0, proc.asid, 0xDEAD000, False)
        )
        assert result is None
        assert len(system.kernel.violation_log) == 1
