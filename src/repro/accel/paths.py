"""Memory-path strategies realizing the configurations of Table 2.

A *path* is what a compute unit's memory instruction traverses. All paths
share the interface:

``mem_op(cu_index, asid, vaddr, write, data) -> Generator`` returning the
accessed bytes (or ``None`` if blocked), plus ``shootdown`` /
``flush_caches`` / ``flush_pages`` maintenance hooks the GPU forwards
from the kernel.

* :class:`CachedHierarchyPath` — per-CU L1 TLB + write-through L1 cache,
  shared write-back L2, then whatever sits below (the raw memory
  controller for the unsafe baseline, or a
  :class:`~repro.core.border_port.BorderControlPort` for the BC configs).
* :class:`~repro.iommu.iommu.FullIOMMUPath` — no TLBs, no caches; every
  request through the checking IOMMU.
* :class:`~repro.iommu.capi.CAPILikePath` — no private structures; a
  trusted TLB + L2.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional

from repro.iommu.ats import ATS
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT
from repro.mem.cache import Cache
from repro.sim.stats import StatDomain
from repro.vm.tlb import TLB, TLBEntry

__all__ = ["CachedHierarchyPath"]


class CachedHierarchyPath:
    """L1 TLB -> L1$ -> shared L2$ -> (border) -> memory.

    This is both the unsafe ATS-only baseline and, with a
    BorderControlPort spliced below the L2, the two Border Control
    configurations — the accelerator keeps every performance optimization
    (paper §5.1).
    """

    def __init__(
        self,
        accel_id: str,
        ats: ATS,
        l1_tlbs: List[TLB],
        l1_caches: List[Cache],
        l2_cache: Cache,
        stats: Optional[StatDomain] = None,
    ) -> None:
        if len(l1_tlbs) != len(l1_caches):
            raise ValueError("need one L1 TLB per L1 cache (per CU)")
        self.accel_id = accel_id
        self.ats = ats
        self.l1_tlbs = l1_tlbs
        self.l1_caches = l1_caches
        self.l2_cache = l2_cache
        stats = stats or StatDomain("path")
        self._translation_faults = stats.counter("translation_faults")

    def mem_op(
        self,
        cu_index: int,
        asid: int,
        vaddr: int,
        write: bool,
        data: Optional[bytes] = None,
    ) -> Generator:
        """The op's generator. On an L1 TLB hit that is the L1 cache's
        own access, so every resume of the op skips a frame here."""
        entry = self.l1_tlbs[cu_index].lookup(asid, vaddr >> PAGE_SHIFT)
        if entry is None:
            return self._translate_and_access(cu_index, asid, vaddr, write, data)
        return self._l1_access(cu_index, entry, vaddr, write, data)

    def _translate_and_access(
        self, cu_index: int, asid: int, vaddr: int, write: bool, data: Optional[bytes]
    ) -> Generator:
        """L1 TLB miss: translate through the ATS, cache the ATS's own
        (immutable) entry in the L1 TLB, access."""
        entry = yield from self.ats.translate(self.accel_id, asid, vaddr >> PAGE_SHIFT)
        if entry is None:
            self._translation_faults.inc()
            return None
        self.l1_tlbs[cu_index].insert(entry)
        return (yield from self._l1_access(cu_index, entry, vaddr, write, data))

    def _l1_access(
        self, cu_index: int, entry: TLBEntry, vaddr: int, write: bool, data: Optional[bytes]
    ) -> Generator:
        """The L1 cache access for a translated op, clipped to its block."""
        ppn = entry.ppn + (vaddr >> PAGE_SHIFT) - entry.vpn  # large pages: offset
        paddr = (ppn << PAGE_SHIFT) | (vaddr & 0xFFF)
        rem = BLOCK_SIZE - (paddr & (BLOCK_SIZE - 1))
        if write and data is not None:
            size = len(data)
            if size > rem:
                size = rem
        else:
            size = rem
        return self.l1_caches[cu_index].access(paddr, size, write, data)

    # -- maintenance ------------------------------------------------------

    def shootdown(self, asid: int, vpn: Optional[int] = None) -> None:
        for tlb in self.l1_tlbs:
            if vpn is None:
                tlb.invalidate_asid(asid)
            else:
                tlb.invalidate(asid, vpn)

    def flush_caches(self) -> Generator:
        """Flush L1s then the L2; L2 writebacks cross the border."""
        written = 0
        for l1 in self.l1_caches:
            written += yield from l1.flush_all()
        written += yield from self.l2_cache.flush_all()
        return written

    def flush_pages(self, ppns: Iterable[int]) -> Generator:
        written = 0
        for ppn in ppns:
            for l1 in self.l1_caches:
                written += yield from l1.flush_page(ppn)
            written += yield from self.l2_cache.flush_page(ppn)
        return written
