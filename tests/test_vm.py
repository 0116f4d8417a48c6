"""Unit tests for the virtual-memory substrate: allocator, page table,
TLB, and MMU."""

import pytest

from repro.core.permissions import Perm
from repro.errors import MemoryError_, PageFault, ProtectionFault
from repro.mem.address import LARGE_PAGE_SIZE, PAGE_SIZE, PAGES_PER_LARGE_PAGE
from repro.vm.frame_allocator import FrameAllocator, OutOfFramesError
from repro.vm.mmu import MMU
from repro.vm.page_table import PageTable
from repro.vm.tlb import TLB, TLBEntry


class TestFrameAllocator:
    def test_alloc_returns_distinct_frames(self, phys):
        alloc = FrameAllocator(phys)
        frames = {alloc.alloc() for _ in range(100)}
        assert len(frames) == 100

    def test_frame_zero_reserved(self, phys):
        alloc = FrameAllocator(phys)
        assert alloc.is_allocated(0)
        assert 0 not in {alloc.alloc() for _ in range(10)}

    def test_alloc_zeroes_frame(self, phys):
        alloc = FrameAllocator(phys)
        phys.write(1 * PAGE_SIZE, b"junk")
        ppn = alloc.alloc()
        assert ppn == 1
        assert phys.read(PAGE_SIZE, 4) == bytes(4)

    def test_free_and_reuse(self, phys):
        alloc = FrameAllocator(phys)
        ppn = alloc.alloc()
        alloc.free(ppn)
        assert alloc.alloc() == ppn

    def test_double_free_rejected(self, phys):
        alloc = FrameAllocator(phys)
        ppn = alloc.alloc()
        alloc.free(ppn)
        with pytest.raises(MemoryError_):
            alloc.free(ppn)

    def test_contiguous_allocation(self, phys):
        alloc = FrameAllocator(phys)
        base = alloc.alloc_contiguous(16)
        assert all(alloc.is_allocated(base + i) for i in range(16))

    def test_contiguous_exhaustion(self):
        from repro.mem.phys_memory import PhysicalMemory

        phys = PhysicalMemory(16 * PAGE_SIZE)
        alloc = FrameAllocator(phys)
        with pytest.raises(OutOfFramesError):
            alloc.alloc_contiguous(32)

    def test_exhaustion(self):
        from repro.mem.phys_memory import PhysicalMemory

        phys = PhysicalMemory(4 * PAGE_SIZE)
        alloc = FrameAllocator(phys)
        for _ in range(3):
            alloc.alloc()
        with pytest.raises(OutOfFramesError):
            alloc.alloc()

    def test_counters(self, phys):
        alloc = FrameAllocator(phys)
        before = alloc.free_frames
        alloc.alloc()
        assert alloc.free_frames == before - 1


class TestPageTable:
    def test_map_translate_roundtrip(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        frame = allocator.alloc()
        table.map(0x400, frame, Perm.RW)
        translation = table.translate_vpn(0x400)
        assert translation.ppn == frame
        assert translation.perms == Perm.RW
        assert translation.page_size == PAGE_SIZE

    def test_unmapped_translates_to_none(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        assert table.translate_vpn(0x123) is None

    def test_double_map_rejected(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        frame = allocator.alloc()
        table.map(1, frame, Perm.R)
        with pytest.raises(MemoryError_):
            table.map(1, frame, Perm.R)

    def test_map_none_perms_rejected(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        with pytest.raises(MemoryError_):
            table.map(1, 2, Perm.NONE)

    def test_unmap(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        frame = allocator.alloc()
        table.map(7, frame, Perm.RW)
        old = table.unmap(7)
        assert old.ppn == frame
        assert table.translate_vpn(7) is None
        assert table.unmap(7) is None

    def test_protect_changes_perms_and_bumps_version_on_downgrade(
        self, phys, allocator
    ):
        table = PageTable(phys, allocator, asid=1)
        table.map(9, allocator.alloc(), Perm.RW)
        v0 = table.version
        table.protect(9, Perm.R)  # downgrade
        assert table.translate_vpn(9).perms == Perm.R
        assert table.version > v0

    def test_protect_upgrade_does_not_bump_version(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        table.map(9, allocator.alloc(), Perm.R)
        v0 = table.version
        table.protect(9, Perm.RW)  # upgrade: no shootdown needed
        assert table.version == v0

    def test_protect_unmapped_rejected(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        with pytest.raises(MemoryError_):
            table.protect(55, Perm.R)

    def test_walk_reports_footprint(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        table.map(0x12345, allocator.alloc(), Perm.R)
        translation, touched = table.walk(0x12345)
        assert translation is not None
        assert len(touched) == 4  # four radix levels

    def test_failed_walk_footprint_is_partial(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        translation, touched = table.walk(0x99999)
        assert translation is None
        assert 1 <= len(touched) <= 4

    def test_large_page_mapping(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        base_ppn = allocator.alloc_contiguous(PAGES_PER_LARGE_PAGE, align=PAGES_PER_LARGE_PAGE)
        table.map(PAGES_PER_LARGE_PAGE * 3, base_ppn, Perm.RW, large=True)
        t = table.translate_vpn(PAGES_PER_LARGE_PAGE * 3 + 17)
        assert t.page_size == LARGE_PAGE_SIZE
        assert t.vpn == PAGES_PER_LARGE_PAGE * 3
        assert t.ppn == base_ppn

    def test_large_page_alignment_enforced(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        with pytest.raises(MemoryError_):
            table.map(5, 512, Perm.RW, large=True)

    def test_large_page_over_present_entry_rejected(self, phys, allocator):
        """A 2 MB mapping may not replace a level-2 entry that already
        points at a leaf node (4 KB pages) or a large page."""
        table = PageTable(phys, allocator, asid=1)
        small = allocator.alloc()
        table.map(515, small, Perm.RW)
        base = allocator.alloc_contiguous(PAGES_PER_LARGE_PAGE, align=PAGES_PER_LARGE_PAGE)
        with pytest.raises(MemoryError_, match="already mapped"):
            table.map(512, base, Perm.R, large=True)
        t = table.translate_vpn(515)
        assert (t.ppn, t.perms, t.page_size) == (small, Perm.RW, PAGE_SIZE)

        table.map(1024, base, Perm.R, large=True)
        other = allocator.alloc_contiguous(PAGES_PER_LARGE_PAGE, align=PAGES_PER_LARGE_PAGE)
        with pytest.raises(MemoryError_, match="already mapped"):
            table.map(1024, other, Perm.RW, large=True)
        assert table.translate_vpn(1024 + 7).ppn == base

    def test_entries_enumeration(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        frames = [allocator.alloc() for _ in range(3)]
        for i, frame in enumerate(frames):
            table.map(1000 + i, frame, Perm.R)
        entries = {t.vpn: t.ppn for t in table.entries()}
        assert entries == {1000 + i: frame for i, frame in enumerate(frames)}

    def test_destroy_frees_node_frames(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        table.map(5, allocator.alloc(), Perm.R)
        used_before = allocator.used_frames
        table.destroy()
        assert allocator.used_frames < used_before

    def test_ptes_live_in_physical_memory(self, phys, allocator):
        """The walker and the OS see the same bytes."""
        table = PageTable(phys, allocator, asid=1)
        frame = allocator.alloc()
        table.map(0, frame, Perm.RW)
        _t, touched = table.walk(0)
        leaf_pte = phys.read_u64(touched[-1])
        assert leaf_pte & 1  # present bit, straight from simulated DRAM


class TestTLB:
    def test_insert_lookup(self):
        tlb = TLB("t", 4)
        tlb.insert(TLBEntry(asid=1, vpn=5, ppn=9, perms=Perm.RW))
        entry = tlb.lookup(1, 5)
        assert entry.ppn == 9
        assert tlb.hits == 1

    def test_miss_counts(self):
        tlb = TLB("t", 4)
        assert tlb.lookup(1, 5) is None
        assert tlb.misses == 1

    def test_asid_isolation(self):
        tlb = TLB("t", 4)
        tlb.insert(TLBEntry(asid=1, vpn=5, ppn=9, perms=Perm.R))
        assert tlb.lookup(2, 5) is None

    def test_lru_eviction(self):
        tlb = TLB("t", 2)
        tlb.insert(TLBEntry(1, 1, 10, Perm.R))
        tlb.insert(TLBEntry(1, 2, 20, Perm.R))
        tlb.lookup(1, 1)  # 2 becomes LRU
        tlb.insert(TLBEntry(1, 3, 30, Perm.R))
        assert tlb.contains(1, 1)
        assert not tlb.contains(1, 2)

    def test_invalidate_single(self):
        tlb = TLB("t", 4)
        tlb.insert(TLBEntry(1, 5, 9, Perm.R))
        assert tlb.invalidate(1, 5)
        assert not tlb.invalidate(1, 5)

    def test_invalidate_asid(self):
        tlb = TLB("t", 8)
        for vpn in range(3):
            tlb.insert(TLBEntry(1, vpn, vpn, Perm.R))
        tlb.insert(TLBEntry(2, 0, 7, Perm.R))
        assert tlb.invalidate_asid(1) == 3
        assert tlb.contains(2, 0)

    def test_invalidate_all(self):
        tlb = TLB("t", 8)
        tlb.insert(TLBEntry(1, 1, 1, Perm.R))
        assert tlb.invalidate_all() == 1
        assert tlb.occupancy == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TLB("t", 0)


class TestMMU:
    def _setup(self, phys, allocator):
        table = PageTable(phys, allocator, asid=1)
        mmu = MMU(phys)
        mmu.set_page_table(table)
        return table, mmu

    def test_translate_and_access(self, phys, allocator):
        table, mmu = self._setup(phys, allocator)
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.RW)
        vaddr = 0x40 * PAGE_SIZE + 0x10
        mmu.write(vaddr, b"hello")
        assert mmu.read(vaddr, 5) == b"hello"
        assert phys.read(frame * PAGE_SIZE + 0x10, 5) == b"hello"

    def test_page_fault_on_unmapped(self, phys, allocator):
        _table, mmu = self._setup(phys, allocator)
        with pytest.raises(PageFault):
            mmu.read(0x123456, 4)

    def test_protection_fault_on_readonly_write(self, phys, allocator):
        table, mmu = self._setup(phys, allocator)
        table.map(0x40, allocator.alloc(), Perm.R)
        with pytest.raises(ProtectionFault):
            mmu.write(0x40 * PAGE_SIZE, b"x")

    def test_cross_page_access(self, phys, allocator):
        table, mmu = self._setup(phys, allocator)
        f1, f2 = allocator.alloc(), allocator.alloc()
        table.map(0x40, f1, Perm.RW)
        table.map(0x41, f2, Perm.RW)
        vaddr = 0x40 * PAGE_SIZE + PAGE_SIZE - 3
        mmu.write(vaddr, b"ABCDEF")
        assert mmu.read(vaddr, 6) == b"ABCDEF"

    def test_stale_tlb_after_table_switch_is_flushed(self, phys, allocator):
        table, mmu = self._setup(phys, allocator)
        table.map(0x40, allocator.alloc(), Perm.RW)
        mmu.read(0x40 * PAGE_SIZE, 1)  # warm TLB
        other = PageTable(phys, allocator, asid=2)
        mmu.set_page_table(other)
        with pytest.raises(PageFault):
            mmu.read(0x40 * PAGE_SIZE, 1)

    def test_access_allowed_probe(self, phys, allocator):
        table, mmu = self._setup(phys, allocator)
        table.map(0x40, allocator.alloc(), Perm.R)
        assert mmu.access_allowed(0x40 * PAGE_SIZE, write=False)
        assert not mmu.access_allowed(0x40 * PAGE_SIZE, write=True)
        assert not mmu.access_allowed(0x999 * PAGE_SIZE, write=False)

    def test_large_page_through_mmu(self, phys, allocator):
        table, mmu = self._setup(phys, allocator)
        base = allocator.alloc_contiguous(PAGES_PER_LARGE_PAGE, align=PAGES_PER_LARGE_PAGE)
        table.map(PAGES_PER_LARGE_PAGE, base, Perm.RW, large=True)
        vaddr = PAGES_PER_LARGE_PAGE * PAGE_SIZE + 123 * PAGE_SIZE + 8
        mmu.write_u64(vaddr, 0xABCD)
        assert mmu.read_u64(vaddr) == 0xABCD
