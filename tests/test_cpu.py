"""Tests for the trusted CPU core model."""

import pytest

from repro.core.permissions import Perm
from repro.cpu.core import CPUProgram
from repro.errors import ProtectionFault
from repro.mem.address import BLOCK_SIZE, PAGE_SIZE
from repro.mem.cache import Cache
from repro.sim.config import SafetyMode

from tests.util import make_system


@pytest.fixture
def system():
    return make_system(SafetyMode.BC_BCC)


class TestPrograms:
    def test_memset_program_shape(self):
        program = CPUProgram.memset(0x1000, 4096)
        assert program.total_mem_ops == 4096 // BLOCK_SIZE
        assert all(write for _g, _v, write in program.ops)

    def test_memscan_program_shape(self):
        program = CPUProgram.memscan(0x1000, 1024)
        assert program.total_mem_ops == 8
        assert not any(write for _g, _v, write in program.ops)


class TestExecution:
    def test_memset_reaches_memory_after_flush(self, system):
        proc = system.new_process("p")
        vaddr = system.kernel.mmap(proc, 1, Perm.RW)
        system.cpu.execute(proc, CPUProgram.memset(vaddr, PAGE_SIZE))
        system.cpu.flush_caches()
        ppn = proc.page_table.translate(vaddr).ppn
        stored = system.phys.read(ppn * PAGE_SIZE, 8)
        assert int.from_bytes(stored, "little") == vaddr

    def test_execution_takes_time(self, system):
        proc = system.new_process("p")
        vaddr = system.kernel.mmap(proc, 4, Perm.RW)
        ticks = system.cpu.execute(proc, CPUProgram.memset(vaddr, 4 * PAGE_SIZE))
        assert ticks > 0

    def test_cache_reuse_speeds_second_scan(self, system):
        proc = system.new_process("p")
        vaddr = system.kernel.mmap(proc, 4, Perm.RW)
        cold = system.cpu.execute(proc, CPUProgram.memscan(vaddr, 4 * PAGE_SIZE))
        warm = system.cpu.execute(proc, CPUProgram.memscan(vaddr, 4 * PAGE_SIZE))
        assert warm < cold

    def test_protection_fault_on_readonly_store(self, system):
        proc = system.new_process("p")
        vaddr = system.kernel.mmap(proc, 1, Perm.R)
        with pytest.raises(ProtectionFault):
            system.cpu.execute(proc, CPUProgram.memset(vaddr, BLOCK_SIZE))

    def test_lazy_page_faulted_in(self, system):
        proc = system.new_process("p")
        vaddr = system.kernel.mmap_lazy(proc, 2, Perm.RW)
        system.cpu.execute(proc, CPUProgram.memset(vaddr, 2 * PAGE_SIZE))
        assert proc.page_table.translate(vaddr) is not None
        assert system.cpu.stats.get("faults_serviced") >= 2

    def test_cow_store_resolved_by_os(self, system):
        parent = system.new_process("parent")
        vaddr = system.kernel.mmap(parent, 1, Perm.RW)
        system.kernel.proc_write(parent, vaddr, b"shared")
        child = system.kernel.fork_cow(parent, "child")
        # A CPU store by the child triggers CoW resolution transparently.
        system.cpu.execute(child, CPUProgram.memset(vaddr, BLOCK_SIZE))
        assert child.page_table.translate(vaddr).perms == Perm.RW
        assert parent.page_table.translate(vaddr).ppn != child.page_table.translate(
            vaddr
        ).ppn

    def test_shootdown_listener(self, system):
        proc = system.new_process("p")
        vaddr = system.kernel.mmap(proc, 1, Perm.RW)
        system.cpu.execute(proc, CPUProgram.memscan(vaddr, BLOCK_SIZE))
        assert system.cpu.tlb.occupancy > 0
        system.cpu.shootdown(proc.asid)
        assert system.cpu.tlb.occupancy == 0


class TestSharedBandwidth:
    def test_cpu_traffic_shares_dram_channel(self, system):
        proc = system.new_process("p")
        vaddr = system.kernel.mmap(proc, 16, Perm.RW)
        before = system.dram.bytes_served
        system.cpu.execute(proc, CPUProgram.memscan(vaddr, 16 * PAGE_SIZE))
        assert system.dram.bytes_served > before


class TestEndToEndHSAFlow:
    def test_cpu_init_gpu_kernel_cpu_readback(self):
        """The Rodinia structure: CPU writes inputs, GPU stores results,
        CPU reads them back — all through one shared address space."""
        from repro.workloads.base import generate_trace
        from tests.util import tiny_spec

        system = make_system(SafetyMode.BC_BCC)
        proc = system.new_process("app")
        system.attach_process(proc)
        spec = tiny_spec(write_fraction=1.0, l1_reuse=0.0, l2_reuse=0.0)
        trace = generate_trace(spec, system.kernel, proc, system.config.threading)
        area = next(iter(proc.areas.values()))

        # CPU initializes the buffer and publishes it.
        system.cpu.execute(proc, CPUProgram.memset(area.start_vaddr, 8 * BLOCK_SIZE))
        system.cpu.flush_caches()

        # GPU kernel overwrites with its own payloads; completion flushes.
        system.run_kernel(proc, trace)
        system.detach_process(proc)

        # CPU reads results back (through its caches; values functional).
        ticks = system.cpu.execute(
            proc, CPUProgram.memscan(area.start_vaddr, 8 * BLOCK_SIZE)
        )
        assert ticks > 0
        assert system.kernel.violation_log == []


class TestBuiltOnFirstUse:
    def test_fresh_system_builds_no_cpu_caches_until_cpu_is_read(self, monkeypatch):
        built = []
        original_init = Cache.__init__

        def recording_init(self, engine, config, *args, **kwargs):
            built.append(config.name)
            original_init(self, engine, config, *args, **kwargs)

        monkeypatch.setattr(Cache, "__init__", recording_init)
        system = make_system(SafetyMode.BC_BCC)
        proc = system.new_process("p")
        system.attach_process(proc)
        system.kernel.mmap(proc, 4, Perm.RW)
        assert built and not [name for name in built if name.startswith("cpu-")]
        cpu = system.cpu
        assert sorted(name for name in built if name.startswith("cpu-")) == [
            "cpu-l1",
            "cpu-l2",
        ]
        assert system.cpu is cpu
        assert cpu in system.kernel._shootdown_listeners

    def test_core_built_late_still_sees_shootdowns(self, system):
        proc = system.new_process("p")
        system.attach_process(proc)
        vaddr = system.kernel.mmap(proc, 1, Perm.RW)
        system.cpu.execute(proc, CPUProgram.memscan(vaddr, BLOCK_SIZE))
        assert system.cpu.tlb.occupancy > 0
        system.kernel.downgrade_process(proc)
        assert system.cpu.tlb.occupancy == 0
