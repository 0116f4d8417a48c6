"""Tests for large-page TLB entries and ATS page-walk coalescing."""

import pytest

from repro.core.permissions import Perm
from repro.iommu.ats import ATS, ATSConfig
from repro.mem.address import PAGES_PER_LARGE_PAGE
from repro.mem.dram import DRAM, DRAMConfig
from repro.sim.stats import StatDomain
from repro.vm.page_table import PageTable
from repro.vm.tlb import TLB, TLBEntry


class TestLargeTLBEntries:
    def test_large_entry_covers_whole_mapping(self):
        tlb = TLB("t", 4)
        tlb.insert(TLBEntry(asid=1, vpn=512, ppn=1024, perms=Perm.RW, pages=512))
        for probe in (512, 700, 1023):
            entry = tlb.lookup(1, probe)
            assert entry is not None
            assert entry.ppn_for(probe) == 1024 + (probe - 512)
        assert tlb.lookup(1, 1024) is None  # one page past the mapping

    def test_entry_helpers(self):
        entry = TLBEntry(asid=1, vpn=512, ppn=64, perms=Perm.R, pages=512)
        assert entry.covers(512) and entry.covers(1023)
        assert not entry.covers(511) and not entry.covers(1024)
        assert entry.ppn_for(600) == 64 + 88

    def test_small_and_large_coexist(self):
        tlb = TLB("t", 4)
        tlb.insert(TLBEntry(1, 0, 7, Perm.R))  # small at vpn 0
        tlb.insert(TLBEntry(1, 0, 100, Perm.RW, pages=512))  # large over same base
        # Exact small match wins for vpn 0; the large entry serves the rest.
        assert tlb.lookup(1, 0).ppn == 7
        assert tlb.lookup(1, 5).ppn_for(5) == 105

    def test_invalidate_hits_large_entry(self):
        tlb = TLB("t", 4)
        tlb.insert(TLBEntry(1, 512, 0, Perm.R, pages=512))
        assert tlb.invalidate(1, 700)  # any covered vpn kills the mapping
        assert tlb.lookup(1, 700) is None

    def test_contains_sees_large(self):
        tlb = TLB("t", 4)
        tlb.insert(TLBEntry(1, 512, 0, Perm.R, pages=512))
        assert tlb.contains(1, 900)


class TestATSWalkCoalescing:
    def _ats(self, engine):
        dram = DRAM(engine, DRAMConfig(), StatDomain("dram"))
        return ATS(engine, dram, ATSConfig(l2_tlb_entries=8))

    def test_concurrent_identical_requests_walk_once(
        self, engine, phys, allocator
    ):
        ats = self._ats(engine)
        table = PageTable(phys, allocator, asid=1)
        table.map(0x40, allocator.alloc(), Perm.RW)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        results = []

        def requester():
            result = yield from ats.translate("gpu0", 1, 0x40)
            results.append(result)

        for _ in range(8):
            engine.process(requester())
        engine.run()
        assert len(results) == 8
        assert all(r is not None and r.ppn == results[0].ppn for r in results)
        assert ats.walks == 1
        assert ats.stats.get("coalesced_walks") == 7

    def test_coalesced_failed_walk_returns_none_for_all(
        self, engine, phys, allocator
    ):
        ats = self._ats(engine)
        table = PageTable(phys, allocator, asid=1)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        results = []

        def requester():
            result = yield from ats.translate("gpu0", 1, 0x999)
            results.append(result)

        for _ in range(4):
            engine.process(requester())
        engine.run()
        assert results == [None] * 4

    def test_coalesced_large_page_requests(self, engine, phys, allocator):
        """Concurrent misses to the same VPN of a large page share a walk
        and every requester sees the 2 MB mapping."""
        ats = self._ats(engine)
        table = PageTable(phys, allocator, asid=1)
        base = allocator.alloc_contiguous(
            PAGES_PER_LARGE_PAGE, align=PAGES_PER_LARGE_PAGE
        )
        table.map(PAGES_PER_LARGE_PAGE, base, Perm.RW, large=True)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        results = []

        def requester():
            result = yield from ats.translate(
                "gpu0", 1, PAGES_PER_LARGE_PAGE + 42
            )
            results.append(result)

        for _ in range(5):
            engine.process(requester())
        engine.run()
        assert ats.walks == 1
        assert all(r.pages == PAGES_PER_LARGE_PAGE for r in results)
