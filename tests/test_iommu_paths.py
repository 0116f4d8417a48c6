"""Unit tests for the full-IOMMU and CAPI-like memory paths."""

import pytest

from repro.core.permissions import Perm
from repro.iommu.ats import ATS, ATSConfig
from repro.iommu.capi import CAPILikePath
from repro.iommu.iommu import FullIOMMUPath
from repro.mem.address import BLOCK_SIZE, PAGE_SIZE
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAM, DRAMConfig
from repro.mem.port import MemoryController
from repro.sim.stats import StatDomain
from repro.vm.page_table import PageTable


@pytest.fixture
def parts(engine, phys, allocator):
    dram = DRAM(engine, DRAMConfig(), StatDomain("dram"))
    memctl = MemoryController(phys, dram)
    ats = ATS(engine, dram, ATSConfig(l2_tlb_entries=16))
    table = PageTable(phys, allocator, asid=1)
    ats.register_address_space(1, table)
    ats.allow("gpu0", 1)
    return dram, memctl, ats, table


class TestFullIOMMU:
    def _iommu(self, parts):
        dram, memctl, ats, table = parts
        return FullIOMMUPath(ats, memctl, processing_latency_ticks=100)

    def test_read_write_roundtrip(self, engine, parts, allocator, phys):
        dram, memctl, ats, table = parts
        iommu = self._iommu(parts)
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.RW)
        vaddr = 0x40 * PAGE_SIZE
        payload = bytes(range(128))
        engine.run_process(iommu.mem_op(0, 1, vaddr, True, payload))
        data = engine.run_process(iommu.mem_op(0, 1, vaddr, False))
        assert data == payload
        assert phys.read(frame * PAGE_SIZE, 8) == payload[:8]

    def test_permission_check_blocks_write(self, engine, parts, allocator, phys):
        dram, memctl, ats, table = parts
        iommu = self._iommu(parts)
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.R)
        result = engine.run_process(
            iommu.mem_op(0, 1, 0x40 * PAGE_SIZE, True, b"x" * BLOCK_SIZE)
        )
        assert result is None
        assert phys.read(frame * PAGE_SIZE, 8) == bytes(8)
        assert iommu.violations[0].reason == "insufficient permissions"

    def test_unmapped_access_blocked(self, engine, parts):
        iommu = self._iommu(parts)
        assert engine.run_process(iommu.mem_op(0, 1, 0x999000, False)) is None
        assert iommu.violations[0].reason == "untranslatable request"

    def test_wrong_asid_blocked(self, engine, parts, allocator):
        dram, memctl, ats, table = parts
        iommu = self._iommu(parts)
        table.map(0x40, allocator.alloc(), Perm.RW)
        assert (
            engine.run_process(iommu.mem_op(0, 77, 0x40 * PAGE_SIZE, False))
            is None
        )

    def test_sub_block_write_merges(self, engine, parts, allocator, phys):
        dram, memctl, ats, table = parts
        iommu = self._iommu(parts)
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.RW)
        phys.write(frame * PAGE_SIZE, b"AAAABBBBCCCC")
        engine.run_process(
            iommu.mem_op(0, 1, 0x40 * PAGE_SIZE + 4, True, b"XX")
        )
        assert phys.read(frame * PAGE_SIZE, 12) == b"AAAAXXBBCCCC"

    def test_violation_handler_invoked(self, engine, parts):
        iommu = self._iommu(parts)
        seen = []
        iommu.events.subscribe("violation", seen.append)
        engine.run_process(iommu.mem_op(0, 1, 0x1000, False))
        assert len(seen) == 1


class TestCAPILike:
    def _capi(self, engine, parts):
        dram, memctl, ats, table = parts
        l2 = Cache(
            engine,
            CacheConfig(name="capi-l2", size_bytes=8192, associativity=4,
                        hit_latency_ticks=10),
            memctl,
            StatDomain("l2"),
        )
        return CAPILikePath(ats, l2, link_latency_ticks=50), l2

    def test_read_through_trusted_cache(self, engine, parts, allocator, phys):
        dram, memctl, ats, table = parts
        capi, l2 = self._capi(engine, parts)
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.R)
        phys.write(frame * PAGE_SIZE, b"TRUSTED!")
        data = engine.run_process(capi.mem_op(0, 1, 0x40 * PAGE_SIZE, False))
        assert data[:8] == b"TRUSTED!"
        # Second access hits the trusted L2.
        engine.run_process(capi.mem_op(0, 1, 0x40 * PAGE_SIZE, False))
        assert l2.hits >= 1

    def test_write_permission_enforced(self, engine, parts, allocator, phys):
        dram, memctl, ats, table = parts
        capi, _l2 = self._capi(engine, parts)
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.R)
        result = engine.run_process(
            capi.mem_op(0, 1, 0x40 * PAGE_SIZE, True, b"evil")
        )
        assert result is None
        assert capi.violations

    def test_writes_land_after_flush(self, engine, parts, allocator, phys):
        dram, memctl, ats, table = parts
        capi, _l2 = self._capi(engine, parts)
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.RW)
        engine.run_process(capi.mem_op(0, 1, 0x40 * PAGE_SIZE, True, b"DATA"))
        engine.run_process(capi.flush_caches())
        assert phys.read(frame * PAGE_SIZE, 4) == b"DATA"

    def test_unmapped_blocked(self, engine, parts):
        capi, _l2 = self._capi(engine, parts)
        assert engine.run_process(capi.mem_op(0, 1, 0xABC000, False)) is None
