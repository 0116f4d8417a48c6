"""The CAPI-like safety configuration (paper §2.3, §5.1, Table 2).

Modeled on IBM CAPI's philosophy: the accelerator's TLB and caches are
implemented in *trusted* hardware, so all physical addressing stays on
the trusted side and safety is inherent. The cost is coupling: the
trusted cache is more distant than a private accelerator L1 would be, so
we model only a shared L2 with added interconnect latency and no
accelerator L1s (the "longer TLB and cache access times" of §2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, List, Optional

from repro.iommu.ats import ATS
from repro.iommu.iommu import IOMMUViolation
from repro.mem.address import BLOCK_SIZE
from repro.mem.cache import Cache
from repro.sim.stats import StatDomain

__all__ = ["CAPILikePath"]


class CAPILikePath:
    """Accelerator memory interface through a trusted cache + TLB.

    It is the accelerator's whole memory path (Table 2's CAPI-like row:
    no private structures), with the path interface of
    :class:`~repro.accel.paths.CachedHierarchyPath`; ``accel_id`` names
    the accelerator whose requests it carries.
    """

    def __init__(
        self,
        ats: ATS,
        trusted_l2: Cache,
        link_latency_ticks: int,
        stats: Optional[StatDomain] = None,
        accel_id: str = "gpu0",
    ) -> None:
        self.accel_id = accel_id
        self.ats = ats
        self.trusted_l2 = trusted_l2
        self.link_latency_ticks = link_latency_ticks
        self.stats = stats or StatDomain("capi")
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
        """One accelerator request through the trusted front end.

        ``cu_index`` is the issuing compute unit; no structure here is
        per-CU.
        """
        self._requests.inc()
        # Cross the accelerator <-> trusted-unit link.
        if self.link_latency_ticks:
            yield self.link_latency_ticks
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
            return (
                yield from self.trusted_l2.access(
                    block_paddr + offset, len(data), True, data
                )
            )
        block = yield from self.trusted_l2.access(
            block_paddr + offset, BLOCK_SIZE - offset, False
        )
        return block

    # -- maintenance ------------------------------------------------------

    def shootdown(self, asid: int, vpn: Optional[int] = None) -> None:
        """Translations live in the trusted ATS TLB; nothing private here."""

    def flush_caches(self) -> Generator:
        """Flush the trusted cache (process completion path); its
        writebacks are trusted and need no border check."""
        written = yield from self.trusted_l2.flush_all()
        return written

    def flush_pages(self, ppns: Iterable[int]) -> Generator:
        written = 0
        for ppn in ppns:
            written += yield from self.trusted_l2.flush_page(ppn)
        return written

    def _block(self, accel_id: str, vaddr: int, write: bool, reason: str) -> None:
        self._blocked.inc()
        violation = IOMMUViolation(accel_id, vaddr, write, reason)
        self.violations.append(violation)
        for handler in self._handlers:
            handler(violation)
        return None
