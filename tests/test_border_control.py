"""Unit tests for the Border Control engine (paper §3.2, Fig. 3)."""

import pytest

from repro.core.bcc import BCCConfig
from repro.core.border_control import BorderControl
from repro.core.permissions import Perm
from repro.errors import BorderControlViolation, ConfigurationError
from repro.mem.address import PAGE_SHIFT, PAGES_PER_LARGE_PAGE


@pytest.fixture
def bc(phys, allocator):
    engine = BorderControl("gpu0", phys, allocator)
    engine.process_init(asid=1)
    return engine


class TestLifecycle:
    def test_idle_engine_has_no_table(self, phys, allocator):
        bc = BorderControl("gpu0", phys, allocator)
        assert not bc.active
        with pytest.raises(ConfigurationError):
            bc.check(0x1000, False)

    def test_process_init_allocates_table(self, phys, allocator):
        bc = BorderControl("gpu0", phys, allocator)
        assert bc.process_init(1) is True  # fresh table
        assert bc.active and bc.use_count == 1

    def test_second_process_reuses_table(self, bc):
        assert bc.process_init(2) is False
        assert bc.use_count == 2

    def test_same_asid_twice_rejected(self, bc):
        with pytest.raises(ConfigurationError):
            bc.process_init(1)

    def test_completion_zeroes_and_frees(self, bc, allocator):
        bc.insert_translation(100, Perm.RW)
        used = allocator.used_frames
        assert bc.process_complete(1) is True
        assert not bc.active
        assert allocator.used_frames < used

    def test_completion_with_remaining_process_keeps_table(self, bc):
        bc.process_init(2)
        bc.insert_translation(100, Perm.RW)
        assert bc.process_complete(1) is False
        assert bc.active
        # But permissions were revoked (zeroed) — lazily re-inserted.
        assert not bc.check(100 << PAGE_SHIFT, False).allowed

    def test_complete_unknown_asid_rejected(self, bc):
        with pytest.raises(ConfigurationError):
            bc.process_complete(42)


class TestChecks:
    def test_lazy_default_deny(self, bc):
        decision = bc.check(0x5000, write=False)
        assert not decision.allowed
        assert decision.perms is Perm.NONE

    def test_insert_then_allow(self, bc):
        bc.insert_translation(5, Perm.RW)
        assert bc.check(5 << PAGE_SHIFT, False).allowed
        assert bc.check(5 << PAGE_SHIFT, True).allowed

    def test_read_only_page_blocks_writes(self, bc):
        bc.insert_translation(6, Perm.R)
        assert bc.check(6 << PAGE_SHIFT, False).allowed
        assert not bc.check(6 << PAGE_SHIFT, True).allowed

    def test_write_only_page_blocks_reads(self, bc):
        bc.insert_translation(7, Perm.W)
        assert not bc.check(7 << PAGE_SHIFT, False).allowed
        assert bc.check(7 << PAGE_SHIFT, True).allowed

    def test_out_of_bounds_blocked(self, bc, phys):
        beyond = phys.size + 0x1000
        decision = bc.check(beyond, False)
        assert not decision.allowed and decision.out_of_bounds

    def test_sub_page_addresses_share_permission(self, bc):
        bc.insert_translation(5, Perm.R)
        for offset in (0, 128, 4095):
            assert bc.check((5 << PAGE_SHIFT) + offset, False).allowed

    def test_counters(self, bc):
        bc.insert_translation(5, Perm.RW)
        bc.check(5 << PAGE_SHIFT, False)
        bc.check(5 << PAGE_SHIFT, True)
        bc.check(0x9000, False)
        assert bc.checks == 3
        assert bc.stats.get("read_checks") == 2
        assert bc.stats.get("write_checks") == 1
        assert bc.stats.get("violations") == 1


class TestViolations:
    def test_violation_recorded_and_handler_called(self, bc):
        seen = []
        bc.events.subscribe("violation", seen.append)
        bc.check(0xABC000, write=True)
        assert len(bc.violations) == 1
        assert seen[0].paddr == 0xABC000
        assert seen[0].write is True
        assert "blocked write" in seen[0].describe()

    def test_strict_mode_raises(self, phys, allocator):
        bc = BorderControl("gpu0", phys, allocator, strict=True)
        bc.process_init(1)
        with pytest.raises(BorderControlViolation):
            bc.check(0x1000, False)

    def test_allowed_access_not_reported(self, bc):
        bc.insert_translation(5, Perm.RW)
        bc.check(5 << PAGE_SHIFT, False)
        assert bc.violations == []


class TestDowngrades:
    def test_downgrade_page_revokes(self, bc):
        bc.insert_translation(5, Perm.RW)
        bc.downgrade_page(5)
        assert not bc.check(5 << PAGE_SHIFT, False).allowed

    def test_downgrade_all_revokes_everything(self, bc):
        for ppn in (1, 50, 900):
            bc.insert_translation(ppn, Perm.RW)
        bc.downgrade_all()
        for ppn in (1, 50, 900):
            assert not bc.check(ppn << PAGE_SHIFT, False).allowed

    def test_reinsertion_after_downgrade(self, bc):
        bc.insert_translation(5, Perm.RW)
        bc.downgrade_all()
        bc.insert_translation(5, Perm.R)  # ATS re-translates lazily
        assert bc.check(5 << PAGE_SHIFT, False).allowed
        assert not bc.check(5 << PAGE_SHIFT, True).allowed


class TestMultiprocess:
    def test_union_permissions(self, bc):
        """§3.3: permissions are the union across co-scheduled processes."""
        bc.process_init(2)
        bc.insert_translation(5, Perm.R)  # process 1's mapping
        bc.insert_translation(5, Perm.W)  # process 2's mapping
        assert bc.check(5 << PAGE_SHIFT, False).allowed
        assert bc.check(5 << PAGE_SHIFT, True).allowed


class TestLargePages:
    def test_large_insertion_covers_512_pages(self, bc):
        base = 1024
        bc.insert_translation(base, Perm.RW, page_count=PAGES_PER_LARGE_PAGE)
        for ppn in (base, base + 17, base + 511):
            assert bc.check(ppn << PAGE_SHIFT, True).allowed
        assert not bc.check((base + 512) << PAGE_SHIFT, False).allowed

    def test_large_insertion_clips_to_bounds(self, phys, allocator):
        bc = BorderControl("gpu0", phys, allocator)
        bc.process_init(1)
        top = phys.num_frames
        # Insertion straddling the top of memory grants only covered pages.
        changed = bc.insert_translation(top - 10, Perm.RW, page_count=512)
        assert changed == 10


class TestNoBCCVariant:
    def test_checks_work_without_bcc(self, phys, allocator):
        bc = BorderControl("gpu0", phys, allocator, bcc_config=None)
        bc.process_init(1)
        assert not bc.has_bcc
        bc.insert_translation(5, Perm.R)
        decision = bc.check(5 << PAGE_SHIFT, False)
        assert decision.allowed
        assert decision.bcc_hit is False  # every check reads the table
        assert bc.pt_accesses >= 2  # one insert write + one check read
