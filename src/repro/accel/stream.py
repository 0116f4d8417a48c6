"""A fixed-function streaming accelerator (DMA-style offload engine).

The paper's intro lists cryptographic, database, and media accelerators
alongside GPUs; §2.3 and §6 note that devices with *regular, predictable*
access patterns (ring buffers, sequential streams) are the ones for which
IOMMU-based checking is tolerable — it is the GPU-class irregular,
high-rate accelerators that need Border Control to keep their caches.

:class:`StreamAccelerator` models the regular class: it reads a source
buffer sequentially, applies a fixed-function transform (a toy XOR
"cipher" — the functional payload is real, so tests can verify the data
path end to end), and streams the result to a destination buffer. It has
a tiny TLB and no caches; every block crosses the border.

Being an :class:`~repro.accel.base.AcceleratorBase`, it attaches to the
kernel like any accelerator and gets its own Protection Table — one per
accelerator, as §3.1.1 requires — which the multi-accelerator tests and
the crypto-offload example exercise.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.accel.base import AcceleratorBase
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT
from repro.mem.port import MemoryPort
from repro.sim.clock import Clock
from repro.sim.engine import Engine, Process
from repro.sim.stats import StatDomain
from repro.vm.tlb import TLB

__all__ = ["StreamAccelerator"]


def xor_transform(data: bytes, key: int = 0x5A) -> bytes:
    """The engine's fixed function: a toy stream cipher."""
    return bytes(b ^ key for b in data)


class StreamAccelerator(AcceleratorBase):
    """Sequential read-transform-write engine behind a border port."""

    def __init__(
        self,
        engine: Engine,
        clock: Clock,
        ats,
        border: MemoryPort,
        accel_id: str = "crypto0",
        tlb_entries: int = 8,
        block_latency_cycles: float = 4.0,
        stats: Optional[StatDomain] = None,
    ) -> None:
        super().__init__(accel_id)
        self.engine = engine
        self.clock = clock
        self.ats = ats
        self.border = border
        self.tlb = TLB(f"{accel_id}-tlb", tlb_entries)
        self.block_latency_ticks = clock.cycles_to_ticks(block_latency_cycles)
        self.stats = stats or StatDomain(accel_id)
        self._blocks = self.stats.counter("blocks_processed")
        self._blocked = self.stats.counter("blocked_accesses")
        self._faults = self.stats.counter("translation_faults")

    # -- translation -------------------------------------------------------

    def _translate(self, asid: int, vaddr: int) -> Generator:
        vpn = vaddr >> PAGE_SHIFT
        entry = self.tlb.lookup(asid, vpn)
        if entry is None:
            entry = yield from self.ats.translate(self.accel_id, asid, vpn)
            if entry is None:
                self._faults.inc()
                return None
            self.tlb.insert(entry)
        return (entry.ppn_for(vpn) << PAGE_SHIFT) | (vaddr & 0xFFF)

    # -- the offload operation -------------------------------------------------

    def run_transform(
        self, asid: int, src_vaddr: int, dst_vaddr: int, nbytes: int, key: int = 0x5A
    ) -> Generator:
        """Stream ``nbytes`` from src to dst, XOR-transforming each block.

        Returns the number of blocks successfully processed; blocks whose
        reads or writes are refused at the border are skipped (and
        counted), mirroring hardware that drops failed transactions.
        """
        if not self.enabled:
            return 0
        done = 0
        for offset in range(0, nbytes, BLOCK_SIZE):
            if not self.enabled:
                break
            chunk = min(BLOCK_SIZE, nbytes - offset)
            src_paddr = yield from self._translate(asid, src_vaddr + offset)
            if src_paddr is None:
                self._blocked.inc()
                continue
            data = yield from self.border.access(src_paddr, chunk, False)
            if data is None:
                self._blocked.inc()
                continue
            yield self.block_latency_ticks  # the fixed-function pipeline
            out = xor_transform(data[:chunk], key)
            dst_paddr = yield from self._translate(asid, dst_vaddr + offset)
            if dst_paddr is None:
                self._blocked.inc()
                continue
            result = yield from self.border.access(dst_paddr, chunk, True, out)
            if result is None:
                self._blocked.inc()
                continue
            self._blocks.inc()
            done += 1
        return done

    def transform(
        self, asid: int, src_vaddr: int, dst_vaddr: int, nbytes: int, key: int = 0x5A
    ) -> int:
        """Synchronous facade; returns blocks processed."""
        return self.engine.run_process(
            self.run_transform(asid, src_vaddr, dst_vaddr, nbytes, key),
            name=f"{self.accel_id}-xform",
        )

    def launch(
        self, asid: int, src_vaddr: int, dst_vaddr: int, nbytes: int
    ) -> Process:
        """Asynchronous launch (runs concurrently with other engines)."""
        return self.engine.process(
            self.run_transform(asid, src_vaddr, dst_vaddr, nbytes),
            name=f"{self.accel_id}-xform",
        )

    # -- kernel-facing protocol ---------------------------------------------

    def shootdown(self, asid: int, vpn: Optional[int] = None) -> None:
        if vpn is None:
            self.tlb.invalidate_asid(asid)
        else:
            self.tlb.invalidate(asid, vpn)

    @property
    def blocks_processed(self) -> int:
        return self._blocks.value

    @property
    def blocked_accesses(self) -> int:
        return self._blocked.value
