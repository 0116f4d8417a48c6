"""Unit tests for the Border Control timing port."""

import pytest

from repro.core.border_control import BorderControl
from repro.core.border_port import BorderControlPort
from repro.core.permissions import Perm
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT
from repro.mem.dram import DRAM, DRAMConfig
from repro.mem.port import MemoryController
from repro.sim.stats import StatDomain


@pytest.fixture
def setup(engine, phys, allocator):
    dram = DRAM(engine, DRAMConfig(), StatDomain("dram"))
    memctl = MemoryController(phys, dram)
    bc = BorderControl("gpu0", phys, allocator)
    bc.process_init(1)
    port = BorderControlPort(
        engine,
        bc,
        dram,
        memctl,
        bcc_latency_ticks=14_290,  # 10 GPU cycles
        pt_latency_ticks=142_900,  # 100 GPU cycles
    )
    return engine, phys, bc, port, dram


def grant_page(bc, ppn, perms=Perm.RW):
    bc.insert_translation(ppn, perms)


class TestFunctional:
    def test_allowed_read_returns_data(self, setup):
        engine, phys, bc, port, _dram = setup
        grant_page(bc, 5)
        phys.write((5 << PAGE_SHIFT) + 256, b"SECRETOK")
        data = engine.run_process(port.access((5 << PAGE_SHIFT) + 256, 8, False))
        assert data == b"SECRETOK"

    def test_blocked_read_returns_none(self, setup):
        engine, phys, bc, port, _dram = setup
        phys.write(6 << PAGE_SHIFT, b"HIDDEN")
        data = engine.run_process(port.access(6 << PAGE_SHIFT, 8, False))
        assert data is None
        assert len(bc.violations) == 1

    def test_blocked_write_does_not_modify_memory(self, setup):
        engine, phys, bc, port, _dram = setup
        grant_page(bc, 7, Perm.R)
        result = engine.run_process(
            port.access(7 << PAGE_SHIFT, 8, True, b"EVILEVIL")
        )
        assert result is None
        assert phys.read(7 << PAGE_SHIFT, 8) == bytes(8)

    def test_allowed_write_commits(self, setup):
        engine, phys, bc, port, _dram = setup
        grant_page(bc, 8)
        engine.run_process(port.access(8 << PAGE_SHIFT, 8, True, b"GOODDATA"))
        assert phys.read(8 << PAGE_SHIFT, 8) == b"GOODDATA"

    def test_recorder_captures_stream(self, setup):
        engine, phys, bc, port, _dram = setup
        grant_page(bc, 9)
        crossings = []
        bc.events.subscribe(
            "decision",
            lambda accel_id, paddr, write, decision: crossings.append(
                (paddr >> PAGE_SHIFT, write)
            ),
        )
        engine.run_process(port.access(9 << PAGE_SHIFT, 8, False))
        engine.run_process(port.access(9 << PAGE_SHIFT, 8, True, b"x" * 8))
        assert crossings == [(9, False), (9, True)]


class TestTiming:
    def test_read_check_overlaps_memory_access(self, setup):
        """A BCC hit (10 cycles) is fully hidden under the DRAM access."""
        engine, phys, bc, port, _dram = setup
        grant_page(bc, 5)
        engine.run_process(port.access(5 << PAGE_SHIFT, 8, False))  # warm BCC
        t0 = engine.now
        engine.run_process(port.access((5 << PAGE_SHIFT) + BLOCK_SIZE, 8, False))
        elapsed = engine.now - t0
        # Elapsed should be ~DRAM latency, not DRAM + check.
        assert elapsed < 60_000 + 14_290 + 5_000

    def test_write_pays_check_before_issuing(self, setup):
        engine, phys, bc, port, _dram = setup
        grant_page(bc, 5)
        engine.run_process(port.access(5 << PAGE_SHIFT, 8, False))  # warm
        t0 = engine.now
        engine.run_process(port.access(5 << PAGE_SHIFT, 8, True, b"y" * 8))
        elapsed = engine.now - t0
        assert elapsed >= 14_290  # at least the BCC lookup, serialized

    def test_bcc_miss_costs_protection_table_access(self, setup):
        engine, phys, bc, port, _dram = setup
        grant_page(bc, 5)
        bc.bcc.invalidate_all()
        t0 = engine.now
        engine.run_process(port.access(5 << PAGE_SHIFT, 8, False))
        miss_elapsed = engine.now - t0
        t0 = engine.now
        engine.run_process(port.access((5 << PAGE_SHIFT) + 512, 8, False))
        hit_elapsed = engine.now - t0
        assert miss_elapsed > hit_elapsed

    def test_pt_reads_consume_dram_bandwidth(self, setup):
        engine, phys, bc, port, dram = setup
        grant_page(bc, 5)
        bc.bcc.invalidate_all()
        reads_before = dram._reads.value
        engine.run_process(port.access(5 << PAGE_SHIFT, 8, False))
        # One PT fill + one data read.
        assert dram._reads.value == reads_before + 2

    def test_blocked_counter(self, setup):
        engine, phys, bc, port, _dram = setup
        engine.run_process(port.access(0x40_0000, 8, False))
        assert port._blocked.value == 1
