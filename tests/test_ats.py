"""Unit tests for the Address Translation Service."""

import pytest

from repro.core.border_control import BorderControl
from repro.core.permissions import Perm
from repro.iommu.ats import ATS, ATSConfig
from repro.mem.dram import DRAM, DRAMConfig
from repro.mem.address import PAGES_PER_LARGE_PAGE
from repro.sim.stats import StatDomain
from repro.vm.page_table import PageTable


@pytest.fixture
def ats(engine):
    dram = DRAM(engine, DRAMConfig(), StatDomain("dram"))
    return ATS(
        engine,
        dram,
        ATSConfig(l2_tlb_entries=8, request_latency_ticks=100, l2_tlb_latency_ticks=50),
    )


@pytest.fixture
def table(phys, allocator):
    return PageTable(phys, allocator, asid=1)


def xlate(engine, ats, accel="gpu0", asid=1, vpn=0):
    return engine.run_process(ats.translate(accel, asid, vpn))


class TestTranslation:
    def test_successful_walk(self, engine, ats, table, allocator):
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.RW)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        result = xlate(engine, ats, vpn=0x40)
        assert result.ppn == frame and result.perms == Perm.RW
        assert ats.walks == 1

    def test_l2_tlb_caches_translations(self, engine, ats, table, allocator):
        table.map(0x40, allocator.alloc(), Perm.R)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        xlate(engine, ats, vpn=0x40)
        xlate(engine, ats, vpn=0x40)
        assert ats.walks == 1  # second request hit the trusted TLB
        assert ats.translations == 2

    def test_unmapped_vpn_returns_none(self, engine, ats, table):
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        assert xlate(engine, ats, vpn=0x999) is None

    def test_unknown_asid_rejected(self, engine, ats, table):
        """§3.2.2: the ATS validates the accelerator's ASID claim."""
        ats.register_address_space(1, table)
        # gpu0 was never allowed to use asid 1.
        assert xlate(engine, ats, vpn=0) is None
        assert ats.stats.get("rejected_asids") == 1

    def test_disallow_revokes_access(self, engine, ats, table, allocator):
        table.map(0x40, allocator.alloc(), Perm.R)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        assert xlate(engine, ats, vpn=0x40) is not None
        ats.disallow("gpu0", 1)
        assert xlate(engine, ats, vpn=0x40) is None

    def test_unregistered_address_space(self, engine, ats):
        ats.allow("gpu0", 1)
        assert xlate(engine, ats, vpn=0) is None


class TestShootdown:
    def test_shootdown_single_vpn(self, engine, ats, table, allocator):
        table.map(0x40, allocator.alloc(), Perm.R)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        xlate(engine, ats, vpn=0x40)
        ats.shootdown(1, 0x40)
        xlate(engine, ats, vpn=0x40)
        assert ats.walks == 2  # re-walked after the shootdown

    def test_shootdown_whole_asid(self, engine, ats, table, allocator):
        for vpn in (0x40, 0x41):
            table.map(vpn, allocator.alloc(), Perm.R)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        xlate(engine, ats, vpn=0x40)
        xlate(engine, ats, vpn=0x41)
        ats.shootdown(1, None)
        xlate(engine, ats, vpn=0x40)
        assert ats.walks == 3


class TestBorderControlInsertion:
    def test_translation_populates_protection_table(
        self, engine, ats, table, phys, allocator
    ):
        """Fig. 3b: every ATS completion inserts into the Protection Table."""
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.RW)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        bc = BorderControl("gpu0", phys, allocator)
        bc.process_init(1)
        ats.attach_border_control("gpu0", bc)
        xlate(engine, ats, vpn=0x40)
        assert bc.table.get(frame) == Perm.RW

    def test_insertion_happens_even_on_tlb_hits(
        self, engine, ats, table, phys, allocator
    ):
        """§3.1.1: the table updates on each ATS request, cached or not."""
        frame = allocator.alloc()
        table.map(0x40, frame, Perm.RW)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        bc = BorderControl("gpu0", phys, allocator)
        bc.process_init(1)
        xlate(engine, ats, vpn=0x40)  # before BC attach: nothing recorded
        ats.attach_border_control("gpu0", bc)
        xlate(engine, ats, vpn=0x40)  # TLB hit, still inserts
        assert bc.table.get(frame) == Perm.RW

    def test_large_page_translation_inserts_512_pages(
        self, engine, ats, table, phys, allocator
    ):
        base = allocator.alloc_contiguous(
            PAGES_PER_LARGE_PAGE, align=PAGES_PER_LARGE_PAGE
        )
        table.map(PAGES_PER_LARGE_PAGE, base, Perm.RW, large=True)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        bc = BorderControl("gpu0", phys, allocator)
        bc.process_init(1)
        ats.attach_border_control("gpu0", bc)
        result = xlate(engine, ats, vpn=PAGES_PER_LARGE_PAGE + 100)
        # The accelerator got the whole 2 MB mapping (one TLB entry)...
        assert result.vpn == PAGES_PER_LARGE_PAGE
        assert result.ppn == base
        assert result.pages == PAGES_PER_LARGE_PAGE
        # ...and Border Control recorded all 512 covered pages (§3.4.4).
        assert bc.table.get(base) == Perm.RW
        assert bc.table.get(base + 511) == Perm.RW

    def test_detach_border_control(self, engine, ats, table, phys, allocator):
        table.map(0x40, allocator.alloc(), Perm.R)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        bc = BorderControl("gpu0", phys, allocator)
        bc.process_init(1)
        ats.attach_border_control("gpu0", bc)
        ats.attach_border_control("gpu0", None)
        xlate(engine, ats, vpn=0x40)
        assert list(bc.table.populated()) == []


class TestTiming:
    def test_walk_charges_dram_accesses(self, engine, ats, table, allocator):
        table.map(0x40, allocator.alloc(), Perm.R)
        ats.register_address_space(1, table)
        ats.allow("gpu0", 1)
        t0 = engine.now
        xlate(engine, ats, vpn=0x40)
        walk_time = engine.now - t0
        t0 = engine.now
        xlate(engine, ats, vpn=0x40)
        hit_time = engine.now - t0
        assert hit_time == 150  # request + TLB latency
        assert walk_time > hit_time
