"""Unit tests for the OS kernel: mapping, COW, swap, violations."""

import pytest

from repro.core.permissions import Perm
from repro.errors import ConfigurationError, MemoryError_, PageFault
from repro.mem.address import PAGE_SHIFT, PAGE_SIZE, PAGES_PER_LARGE_PAGE
from repro.mem.phys_memory import PhysicalMemory
from repro.osmodel.kernel import Kernel, ViolationPolicy
from repro.osmodel.process import ProcessState
from repro.vm.frame_allocator import OutOfFramesError


class TestProcessLifecycle:
    def test_create_process_unique_ids(self, kernel):
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        assert a.pid != b.pid
        assert a.asid != b.asid

    def test_exit_frees_memory(self, kernel):
        proc = kernel.create_process("p")
        kernel.mmap(proc, 8)
        used = kernel.allocator.used_frames
        kernel.exit_process(proc)
        assert kernel.allocator.used_frames < used
        assert proc.pid not in kernel.processes

    def test_kill_marks_state(self, kernel):
        proc = kernel.create_process("p")
        kernel.kill_process(proc, "testing")
        assert proc.state is ProcessState.KILLED
        assert not proc.alive
        assert proc.exit_reason == "testing"


class TestMmap:
    def test_mmap_eagerly_maps(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, 4, Perm.RW)
        for i in range(4):
            t = proc.page_table.translate(vaddr + i * PAGE_SIZE)
            assert t is not None and t.perms == Perm.RW

    def test_mmap_zero_pages_rejected(self, kernel):
        proc = kernel.create_process("p")
        with pytest.raises(MemoryError_):
            kernel.mmap(proc, 0)

    def test_mmap_regions_disjoint(self, kernel):
        proc = kernel.create_process("p")
        a = kernel.mmap(proc, 4)
        b = kernel.mmap(proc, 4)
        assert abs(a - b) >= 4 * PAGE_SIZE

    def test_munmap_removes_translations(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, 2)
        kernel.munmap(proc, vaddr)
        assert proc.page_table.translate(vaddr) is None

    def test_munmap_unknown_area_rejected(self, kernel):
        proc = kernel.create_process("p")
        with pytest.raises(MemoryError_):
            kernel.munmap(proc, 0xDEAD000)

    def test_large_mmap(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, PAGES_PER_LARGE_PAGE, large=True)
        t = proc.page_table.translate(vaddr)
        assert t.is_large

    def test_failed_mmap_releases_its_frames(self):
        """Running out of frames part way through an eager mmap unmaps and
        frees the pages it had mapped; nothing is left for exit to find."""
        kernel = Kernel(PhysicalMemory(1 << 20))  # 256 frames
        free_at_start = kernel.allocator.free_frames
        proc = kernel.create_process("p")
        # Build the leaf node the failing mmap fills, so the frames it
        # allocates are all data frames.
        first_vpn = kernel.mmap(proc, 1) >> PAGE_SHIFT
        free_before = kernel.allocator.free_frames
        refs_before = dict(kernel._frame_refs)
        with pytest.raises(OutOfFramesError):
            kernel.mmap(proc, 400)
        assert kernel.allocator.free_frames == free_before
        assert kernel._frame_refs == refs_before
        assert all(
            proc.page_table.translate_vpn(vpn) is None
            for vpn in range(first_vpn + 1, first_vpn + 401)
        )
        kernel.exit_process(proc)
        assert kernel.allocator.free_frames == free_at_start

    def test_failed_large_mmap_releases_its_frames(self):
        kernel = Kernel(PhysicalMemory(8 << 20))  # three aligned free 2 MB runs
        proc = kernel.create_process("p")
        first_vpn = kernel.mmap(proc, PAGES_PER_LARGE_PAGE, large=True) >> PAGE_SHIFT
        free_before = kernel.allocator.free_frames
        with pytest.raises(OutOfFramesError):
            kernel.mmap(proc, 3 * PAGES_PER_LARGE_PAGE, large=True)
        assert kernel.allocator.free_frames == free_before
        start_vpn = first_vpn + PAGES_PER_LARGE_PAGE
        for vpn in range(start_vpn, start_vpn + 3 * PAGES_PER_LARGE_PAGE, PAGES_PER_LARGE_PAGE):
            assert proc.page_table.translate_vpn(vpn) is None

    def test_proc_read_write(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, 2)
        kernel.proc_write(proc, vaddr + 4090, b"straddles page")
        assert kernel.proc_read(proc, vaddr + 4090, 14) == b"straddles page"


class TestMprotect:
    def test_mprotect_updates_perms(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, 2, Perm.RW)
        kernel.mprotect(proc, vaddr, 2, Perm.R)
        assert proc.page_table.translate(vaddr).perms == Perm.R

    def test_mprotect_unmapped_rejected(self, kernel):
        proc = kernel.create_process("p")
        with pytest.raises(MemoryError_):
            kernel.mprotect(proc, 0xABC000, 1, Perm.R)

    def test_downgrade_counted(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, 1, Perm.RW)
        kernel.mprotect(proc, vaddr, 1, Perm.R)
        assert kernel.stats.get("downgrades") == 1

    def test_upgrade_not_a_downgrade(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, 1, Perm.R)
        kernel.mprotect(proc, vaddr, 1, Perm.RW)
        assert kernel.stats.get("downgrades") == 0


class TestLazyAndFaults:
    def test_lazy_mmap_faults_in_frames(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap_lazy(proc, 4)
        assert proc.page_table.translate(vaddr) is None
        ppn = kernel.handle_page_fault(proc, vaddr, write=False)
        assert proc.page_table.translate(vaddr).ppn == ppn

    def test_fault_outside_any_area_raises(self, kernel):
        proc = kernel.create_process("p")
        with pytest.raises(PageFault):
            kernel.handle_page_fault(proc, 0xFFFF0000, write=False)


class TestCopyOnWrite:
    def test_fork_shares_frames_readonly(self, kernel):
        parent = kernel.create_process("parent")
        vaddr = kernel.mmap(parent, 2, Perm.RW)
        kernel.proc_write(parent, vaddr, b"inherit me")
        child = kernel.fork_cow(parent, "child")
        pt = parent.page_table.translate(vaddr)
        ct = child.page_table.translate(vaddr)
        assert pt.ppn == ct.ppn
        assert pt.perms == Perm.R and ct.perms == Perm.R
        assert kernel.proc_read(child, vaddr, 10) == b"inherit me"

    def test_cow_write_fault_copies(self, kernel):
        parent = kernel.create_process("parent")
        vaddr = kernel.mmap(parent, 1, Perm.RW)
        kernel.proc_write(parent, vaddr, b"original")
        child = kernel.fork_cow(parent, "child")
        new_ppn = kernel.handle_page_fault(child, vaddr, write=True)
        assert child.page_table.translate(vaddr).ppn == new_ppn
        assert child.page_table.translate(vaddr).perms == Perm.RW
        # Parent still read-only on the old frame with original contents.
        assert kernel.proc_read(parent, vaddr, 8) == b"original"
        kernel.proc_write(child, vaddr, b"mutated!")
        assert kernel.proc_read(parent, vaddr, 8) == b"original"
        assert kernel.proc_read(child, vaddr, 8) == b"mutated!"

    def test_last_sharer_upgrades_in_place(self, kernel):
        parent = kernel.create_process("parent")
        vaddr = kernel.mmap(parent, 1, Perm.RW)
        child = kernel.fork_cow(parent, "child")
        old_ppn = parent.page_table.translate(vaddr).ppn
        # Child resolves first (copies), then parent is the last sharer.
        kernel.handle_page_fault(child, vaddr, write=True)
        ppn = kernel.handle_page_fault(parent, vaddr, write=True)
        assert ppn == old_ppn
        assert parent.page_table.translate(vaddr).perms == Perm.RW

    def test_cow_counts(self, kernel):
        parent = kernel.create_process("parent")
        vaddr = kernel.mmap(parent, 1, Perm.RW)
        child = kernel.fork_cow(parent, "child")
        kernel.handle_page_fault(child, vaddr, write=True)
        assert kernel.stats.get("cow_copies") == 1


class TestSwap:
    def test_swap_out_and_back_in(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, 1, Perm.RW)
        kernel.proc_write(proc, vaddr, b"swapped content")
        kernel.swap_out(proc, vaddr)
        assert proc.page_table.translate(vaddr) is None
        kernel.handle_page_fault(proc, vaddr, write=False)
        assert kernel.proc_read(proc, vaddr, 15) == b"swapped content"
        assert kernel.stats.get("swap_outs") == 1
        assert kernel.stats.get("swap_ins") == 1

    def test_swap_frees_frame(self, kernel):
        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, 1, Perm.RW)
        used = kernel.allocator.used_frames
        kernel.swap_out(proc, vaddr)
        assert kernel.allocator.used_frames == used - 1


class TestViolationPolicies:
    def _violate(self, kernel):
        """Attach a dummy accelerator and trigger a violation."""
        from repro.accel.base import AcceleratorBase

        proc = kernel.create_process("victim-of-accel")
        accel = AcceleratorBase("accel0")
        kernel.attach_accelerator(proc, accel)
        sandbox = kernel.sandboxes.border_control_for("accel0")
        sandbox.check(0x7FFF000, write=True)  # no permissions: violation
        return proc, accel

    def test_log_only(self, phys):
        kernel = Kernel(phys, violation_policy=ViolationPolicy.LOG_ONLY)
        proc, accel = self._violate(kernel)
        assert len(kernel.violation_log) == 1
        assert proc.alive and accel.enabled

    def test_kill_process(self, phys):
        kernel = Kernel(phys, violation_policy=ViolationPolicy.KILL_PROCESS)
        proc, accel = self._violate(kernel)
        assert not proc.alive
        assert proc.state is ProcessState.KILLED

    def test_disable_accelerator(self, phys):
        kernel = Kernel(phys, violation_policy=ViolationPolicy.DISABLE_ACCELERATOR)
        proc, accel = self._violate(kernel)
        assert proc.alive
        assert not accel.enabled


class TestAcceleratorAttachment:
    def test_attach_creates_sandbox(self, kernel):
        from repro.accel.base import AcceleratorBase

        proc = kernel.create_process("p")
        accel = AcceleratorBase("gpu0")
        sandbox = kernel.attach_accelerator(proc, accel)
        assert sandbox is not None and sandbox.active
        assert "gpu0" in proc.accelerators

    def test_attach_unsandboxed(self, kernel):
        from repro.accel.base import AcceleratorBase

        proc = kernel.create_process("p")
        accel = AcceleratorBase("gpu0")
        sandbox = kernel.attach_accelerator(proc, accel, sandboxed=False)
        assert sandbox is None
        assert "gpu0" in proc.accelerators

    def test_detach_tears_down(self, kernel):
        from repro.accel.base import AcceleratorBase

        proc = kernel.create_process("p")
        accel = AcceleratorBase("gpu0")
        kernel.attach_accelerator(proc, accel)
        kernel.detach_accelerator(proc, accel)
        assert "gpu0" not in proc.accelerators
        assert not kernel.sandboxes.border_control_for("gpu0").active

    def test_detach_unattached_rejected(self, kernel):
        from repro.accel.base import AcceleratorBase

        proc = kernel.create_process("p")
        accel = AcceleratorBase("gpu0")
        with pytest.raises(ConfigurationError):
            kernel.detach_accelerator(proc, accel)

    def test_attach_dead_process_rejected(self, kernel):
        from repro.accel.base import AcceleratorBase

        proc = kernel.create_process("p")
        kernel.kill_process(proc, "dead")
        with pytest.raises(ConfigurationError):
            kernel.attach_accelerator(proc, AcceleratorBase("gpu0"))


class TestExitWithAccelerator:
    def test_exit_process_detaches_and_reclaims(self, kernel):
        from repro.accel.base import AcceleratorBase

        proc = kernel.create_process("p")
        kernel.mmap(proc, 8)
        accel = AcceleratorBase("gpu0")
        kernel.attach_accelerator(proc, accel)
        used = kernel.allocator.used_frames
        kernel.exit_process(proc)
        assert proc.asid not in accel.asids
        assert not kernel.sandboxes.border_control_for("gpu0").active
        assert kernel.allocator.used_frames < used

    def test_swap_out_preserves_accelerator_written_data(self, kernel):
        """Downgrade-before-swap captures dirty accelerator data: the
        kernel's swap_out orders flush before reading the frame."""
        from repro.accel.base import AcceleratorBase
        from repro.core.permissions import Perm as P

        proc = kernel.create_process("p")
        vaddr = kernel.mmap(proc, 1, P.RW)
        kernel.attach_accelerator(proc, AcceleratorBase("gpu0"))
        kernel.proc_write(proc, vaddr, b"cpu-data")
        kernel.swap_out(proc, vaddr)
        kernel.handle_page_fault(proc, vaddr, write=False)
        assert kernel.proc_read(proc, vaddr, 8) == b"cpu-data"
