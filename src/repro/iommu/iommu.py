"""The full-IOMMU safety configuration (paper §2.3, Table 2).

For the IOMMU to enforce safety, the accelerator must issue *every*
memory request as a virtual address to the IOMMU, which translates and
permission-checks it before forwarding to memory. The accelerator keeps
no TLB and no caches (the IOMMU's own L2 TLB remains, because the IOMMU
caches translations). Safe, but each request pays translation plus a full
DRAM round trip — the configuration whose overhead Fig. 4 shows at 374%
(highly threaded) / 85% (moderately threaded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, List, Optional

from repro.iommu.ats import ATS
from repro.mem.address import BLOCK_SIZE
from repro.mem.port import MemoryPort
from repro.sim.stats import StatDomain

__all__ = ["FullIOMMUPath", "IOMMUViolation"]


@dataclass(frozen=True)
class IOMMUViolation:
    """A request the IOMMU refused (bad ASID, unmapped, or insufficient perms)."""

    accel_id: str
    vaddr: int
    write: bool
    reason: str


class FullIOMMUPath:
    """Accelerator memory interface: translate + check every request.

    It is the accelerator's whole memory path (Table 2's full-IOMMU row:
    no accelerator TLBs or caches), with the path interface of
    :class:`~repro.accel.paths.CachedHierarchyPath`; ``accel_id`` names
    the accelerator whose requests it carries.
    """

    def __init__(
        self,
        ats: ATS,
        memory: MemoryPort,
        processing_latency_ticks: int,
        stats: Optional[StatDomain] = None,
        accel_id: str = "gpu0",
    ) -> None:
        self.accel_id = accel_id
        self.ats = ats
        self.memory = memory
        self.processing_latency_ticks = processing_latency_ticks
        self.stats = stats or StatDomain("full_iommu")
        self._requests = self.stats.counter("requests")
        self._blocked = self.stats.counter("blocked")
        self.violations: List[IOMMUViolation] = []
        self._handlers: List[Callable[[IOMMUViolation], None]] = []

    def on_violation(self, handler: Callable[[IOMMUViolation], None]) -> None:
        self._handlers.append(handler)

    def off_violation(self, handler: Callable[[IOMMUViolation], None]) -> None:
        self._handlers.remove(handler)

    def mem_op(
        self,
        cu_index: int,
        asid: int,
        vaddr: int,
        write: bool,
        data: Optional[bytes] = None,
    ) -> Generator:
        """One accelerator request, block-granular. Returns bytes or None.

        ``cu_index`` is the issuing compute unit; no structure here is
        per-CU.
        """
        self._requests.inc()
        if self.processing_latency_ticks:
            yield self.processing_latency_ticks
        vpn = vaddr >> 12
        accel_id = self.accel_id
        result = yield from self.ats.translate(accel_id, asid, vpn)
        if result is None:
            return self._block(accel_id, vaddr, write, "untranslatable request")
        if not result.perms.allows(write):
            return self._block(accel_id, vaddr, write, "insufficient permissions")
        ppn = result.ppn + ((vaddr >> 12) - result.vpn)  # large pages: offset
        paddr = (ppn << 12) | (vaddr & 0xFFF)
        block_paddr = paddr & ~(BLOCK_SIZE - 1)
        offset = paddr - block_paddr
        if write:
            if data is None:
                raise ValueError("write requires data")
            if offset == 0 and len(data) == BLOCK_SIZE:
                return (
                    yield from self.memory.access(block_paddr, BLOCK_SIZE, True, data)
                )
            # Sub-block store: read-modify-write at block granularity.
            current = yield from self.memory.access(block_paddr, BLOCK_SIZE, False)
            if current is None:
                return None
            merged = bytearray(current)
            merged[offset : offset + len(data)] = data
            return (
                yield from self.memory.access(block_paddr, BLOCK_SIZE, True, bytes(merged))
            )
        block = yield from self.memory.access(block_paddr, BLOCK_SIZE, False)
        if block is None:
            return None
        return block[offset : offset + BLOCK_SIZE - offset]

    # -- maintenance ------------------------------------------------------

    def shootdown(self, asid: int, vpn: Optional[int] = None) -> None:
        """Nothing to invalidate on the accelerator side (the IOMMU's own
        L2 TLB is shot down by the kernel through the ATS listener)."""

    def flush_caches(self) -> Generator:
        return 0
        yield  # pragma: no cover

    def flush_pages(self, ppns: Iterable[int]) -> Generator:
        return 0
        yield  # pragma: no cover

    def _block(self, accel_id: str, vaddr: int, write: bool, reason: str) -> None:
        self._blocked.inc()
        violation = IOMMUViolation(accel_id, vaddr, write, reason)
        self.violations.append(violation)
        for handler in self._handlers:
            handler(violation)
        return None
