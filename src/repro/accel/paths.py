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
* :class:`FullIOMMUPathAdapter` — no TLBs, no caches; every request
  through the checking IOMMU.
* :class:`CAPIPathAdapter` — no private structures; a trusted TLB + L2.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional

from repro.iommu.ats import ATS
from repro.iommu.capi import CAPILikePath
from repro.iommu.iommu import FullIOMMUPath
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT
from repro.mem.cache import Cache
from repro.sim.stats import StatDomain
from repro.vm.tlb import TLB, TLBEntry

__all__ = ["CachedHierarchyPath", "FullIOMMUPathAdapter", "CAPIPathAdapter"]


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
        vpn = vaddr >> PAGE_SHIFT
        entry = self.l1_tlbs[cu_index].lookup(asid, vpn)
        if entry is None:
            result = yield from self.ats.translate(self.accel_id, asid, vpn)
            if result is None:
                self._translation_faults.inc()
                return None
            entry = TLBEntry(
                asid=asid,
                vpn=result.vpn,
                ppn=result.ppn,
                perms=result.perms,
                pages=result.pages_covered,
            )
            self.l1_tlbs[cu_index].insert(entry)
        paddr = ((entry.ppn + vpn - entry.vpn) << PAGE_SHIFT) | (vaddr & 0xFFF)
        rem = BLOCK_SIZE - (paddr & (BLOCK_SIZE - 1))
        if write and data is not None:
            size = len(data)
            if size > rem:
                size = rem
        else:
            size = rem
        return (
            yield from self.l1_caches[cu_index].access(paddr, size, write, data)
        )

    # -- batched-replay fast path -----------------------------------------

    def fast_read_latency(self, cu_index: int) -> int:
        """Ticks a :meth:`fast_read` hit costs (the L1 hit latency)."""
        return self.l1_caches[cu_index].config.hit_latency_ticks

    def fast_read(self, cu_index: int, asid: int, vaddr: int):
        """Zero-yield probe-and-commit for a pure-hit read.

        The all-or-nothing analogue of :meth:`mem_op` for the only case
        batched trace replay may service inline: an L1 TLB hit followed by
        an L1 cache read hit. Both structures are probed without side
        effects first; only when *both* hit are the hit-path side effects
        committed (recency touches + hit counters — exactly what the
        generator path commits, in the same per-structure order). Returns
        the resident line (truthy) on success, or ``None`` with the TLB
        and cache untouched so the caller can fall back to :meth:`mem_op`
        without double counting.
        """
        tlb = self.l1_tlbs[cu_index]
        vpn = vaddr >> PAGE_SHIFT
        probed = tlb.probe(asid, vpn)
        if probed is None:
            return None
        key, entry = probed
        paddr = (entry.ppn_for(vpn) << PAGE_SHIFT) | (vaddr & 0xFFF)
        # A block-granular read, clipped at the block boundary — the same
        # size mem_op computes for a read.
        size = BLOCK_SIZE - (paddr & (BLOCK_SIZE - 1))
        cache = self.l1_caches[cu_index]
        line = cache.probe_read_hit(paddr, size)
        if line is None:
            return None
        tlb.commit_hit(key)
        cache.commit_read_hit(line)
        return line

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


class FullIOMMUPathAdapter:
    """Table 2's full-IOMMU row: no accelerator TLBs or caches at all."""

    def __init__(self, accel_id: str, iommu: FullIOMMUPath) -> None:
        self.accel_id = accel_id
        self.iommu = iommu

    def mem_op(
        self,
        cu_index: int,
        asid: int,
        vaddr: int,
        write: bool,
        data: Optional[bytes] = None,
    ) -> Generator:
        return (
            yield from self.iommu.mem_op(self.accel_id, asid, vaddr, write, data)
        )

    def shootdown(self, asid: int, vpn: Optional[int] = None) -> None:
        """Nothing to invalidate on the accelerator side (the IOMMU's own
        L2 TLB is shot down by the kernel through the ATS listener)."""

    def flush_caches(self) -> Generator:
        return 0
        yield  # pragma: no cover

    def flush_pages(self, ppns: Iterable[int]) -> Generator:
        return 0
        yield  # pragma: no cover


class CAPIPathAdapter:
    """Table 2's CAPI-like row: trusted TLB and shared L2 only."""

    def __init__(self, accel_id: str, capi: CAPILikePath) -> None:
        self.accel_id = accel_id
        self.capi = capi

    def mem_op(
        self,
        cu_index: int,
        asid: int,
        vaddr: int,
        write: bool,
        data: Optional[bytes] = None,
    ) -> Generator:
        return (
            yield from self.capi.mem_op(self.accel_id, asid, vaddr, write, data)
        )

    def shootdown(self, asid: int, vpn: Optional[int] = None) -> None:
        """Translations live in the trusted ATS TLB; nothing private here."""

    def flush_caches(self) -> Generator:
        """The trusted L2 is flushed on process completion; its writebacks
        are trusted and need no border check."""
        written = yield from self.capi.flush()
        return written

    def flush_pages(self, ppns: Iterable[int]) -> Generator:
        written = 0
        for ppn in ppns:
            written += yield from self.capi.trusted_l2.flush_page(ppn)
        return written
