"""Unit tests for the sandbox registry."""

import pytest

from repro.core.permissions import Perm
from repro.core.sandbox import SandboxManager
from repro.errors import ConfigurationError
from repro.mem.address import PAGE_SHIFT


@pytest.fixture
def manager(phys, allocator):
    return SandboxManager(phys, allocator)


class TestRegistry:
    def test_lazy_creation_is_idempotent(self, manager):
        a = manager.border_control_for("gpu0")
        b = manager.border_control_for("gpu0")
        assert a is b
        assert not a.active

    def test_attach_creates_active_sandbox(self, manager):
        sandbox = manager.attach("gpu0", asid=1)
        assert sandbox.active
        assert manager.active_sandboxes() == [("gpu0", sandbox)]

    def test_detach_returns_teardown_flag(self, manager):
        manager.attach("gpu0", 1)
        manager.attach("gpu0", 2)
        assert manager.detach("gpu0", 1) is False
        assert manager.detach("gpu0", 2) is True
        assert manager.active_sandboxes() == []

    def test_detach_unknown_accelerator(self, manager):
        with pytest.raises(ConfigurationError):
            manager.detach("nope", 1)

    def test_placement_tracking(self, manager):
        manager.attach("gpu0", 1)
        manager.attach("fpga0", 1)
        manager.attach("gpu0", 2)
        running = [sb.accel_id for sb in manager.sandboxes_running(1)]
        assert running == ["fpga0", "gpu0"]
        manager.detach("fpga0", 1)
        running = [sb.accel_id for sb in manager.sandboxes_running(1)]
        assert running == ["gpu0"]

    def test_insert_translation_routes(self, manager):
        manager.attach("gpu0", 1)
        manager.insert_translation("gpu0", 42, Perm.RW)
        sandbox = manager.border_control_for("gpu0")
        assert sandbox.check(42 << PAGE_SHIFT, True).allowed

    def test_per_accelerator_tables_are_independent(self, manager):
        """§3.1.1: one Protection Table per active accelerator."""
        manager.attach("gpu0", 1)
        manager.attach("fpga0", 1)
        manager.insert_translation("gpu0", 42, Perm.RW)
        gpu = manager.border_control_for("gpu0")
        fpga = manager.border_control_for("fpga0")
        assert gpu.check(42 << PAGE_SHIFT, False).allowed
        assert not fpga.check(42 << PAGE_SHIFT, False).allowed

    def test_total_table_bytes(self, manager, phys):
        manager.attach("gpu0", 1)
        manager.attach("fpga0", 1)
        expected_each = -(-phys.num_frames // 4)  # ceil, pre-page-rounding
        total = manager.total_table_bytes()
        assert total >= 2 * expected_each

    def test_violation_handler_fans_out_to_new_sandboxes(self, manager):
        seen = []
        manager.events.subscribe("violation", seen.append)
        manager.attach("gpu0", 1)
        manager.border_control_for("gpu0").check(0x5000, False)
        assert len(seen) == 1

    def test_violation_handler_installed_on_existing(self, manager):
        manager.attach("gpu0", 1)
        seen = []
        manager.events.subscribe("violation", seen.append)
        manager.border_control_for("gpu0").check(0x5000, False)
        assert len(seen) == 1
