"""A 4-level radix page table resident in simulated physical memory.

Layout follows x86-64: four levels of 512 x 64-bit entries indexed by
9-bit slices of the virtual page number; level-1 entries map 4 KB pages
and level-2 entries with the PS bit map 2 MB large pages (paper §3.4.4).

PTE format (bits):

=====  ==========================================================
0      present
1      readable   (kept explicit so read-only/write-only differ)
2      writable
7      page size  (set in a level-2 entry mapping a 2 MB page)
12-51  physical page number of the target frame / next level
=====  ==========================================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.permissions import PERM_BY_BITS, Perm
from repro.errors import MemoryError_
from repro.mem.address import (
    LARGE_PAGE_SIZE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PAGES_PER_LARGE_PAGE,
)
from repro.mem.phys_memory import PhysicalMemory
from repro.vm.frame_allocator import FrameAllocator

__all__ = ["PageTable", "Translation"]

_PTE_SIZE = 8
_ENTRIES_PER_NODE = PAGE_SIZE // _PTE_SIZE  # 512
_LEVELS = 4

_FLAG_PRESENT = 1 << 0
_FLAG_READ = 1 << 1
_FLAG_WRITE = 1 << 2
_FLAG_LARGE = 1 << 7
_PPN_SHIFT = 12
_PPN_MASK = ((1 << 40) - 1) << _PPN_SHIFT
#: Maps a PTE's low byte to its present bit.
_PRESENT_BIT = bytes(byte & _FLAG_PRESENT for byte in range(256))


@dataclass(frozen=True)
class Translation:
    """Result of a successful page-table walk."""

    vpn: int
    ppn: int
    perms: Perm
    page_size: int = PAGE_SIZE

    @property
    def is_large(self) -> bool:
        return self.page_size == LARGE_PAGE_SIZE


def _encode(ppn: int, perms: Perm, large: bool = False) -> int:
    pte = _FLAG_PRESENT | ((ppn << _PPN_SHIFT) & _PPN_MASK)
    if perms.readable:
        pte |= _FLAG_READ
    if perms.writable:
        pte |= _FLAG_WRITE
    if large:
        pte |= _FLAG_LARGE
    return pte


def _decode_perms(pte: int) -> Perm:
    # The read and write flags (bits 1 and 2) are Perm's R and W bits
    # shifted up by one.
    return PERM_BY_BITS[(pte >> 1) & 0x3]


class PageTable:
    """Per-process page table; all nodes live in physical memory."""

    def __init__(
        self, phys: PhysicalMemory, allocator: FrameAllocator, asid: int
    ) -> None:
        self.phys = phys
        self.allocator = allocator
        self.asid = asid
        self.root_ppn = allocator.alloc()
        self._node_frames: List[int] = [self.root_ppn]
        self.version = 0  # bumped on every unmap/protect (shootdown epoch)

    # -- PTE access ------------------------------------------------------

    def _read_pte(self, node_ppn: int, index: int) -> int:
        return self.phys.read_u64((node_ppn << PAGE_SHIFT) + index * _PTE_SIZE)

    def _write_pte(self, node_ppn: int, index: int, pte: int) -> None:
        self.phys.write_u64((node_ppn << PAGE_SHIFT) + index * _PTE_SIZE, pte)

    @staticmethod
    def _indices(vpn: int) -> Tuple[int, int, int, int]:
        return (
            (vpn >> 27) & 0x1FF,
            (vpn >> 18) & 0x1FF,
            (vpn >> 9) & 0x1FF,
            vpn & 0x1FF,
        )

    # -- mapping -----------------------------------------------------------

    def map(self, vpn: int, ppn: int, perms: Perm, large: bool = False) -> None:
        """Install a VPN -> PPN mapping with the given permissions.

        Large mappings must be 2 MB-aligned on both sides and install a
        single level-2 entry covering 512 base pages; the entry must not
        be present yet (neither a large page nor a leaf node).
        """
        if perms is Perm.NONE:
            raise MemoryError_("mapping with no permissions; use unmap instead")
        idx = self._indices(vpn)
        if large:
            if vpn % PAGES_PER_LARGE_PAGE or ppn % PAGES_PER_LARGE_PAGE:
                raise MemoryError_("large mappings must be 2 MB aligned")
            node, slot = self._descend_to(idx, depth=2, create=True), idx[2]
        else:
            node, slot = self._descend_to(idx, depth=3, create=True), idx[3]
        if self._read_pte(node, slot) & _FLAG_PRESENT:
            raise MemoryError_(f"vpn {vpn:#x} already mapped")
        self._write_pte(node, slot, _encode(ppn, perms, large=large))

    def map_pages(
        self, start_vpn: int, num_pages: int, perms: Perm, frames: List[int]
    ) -> None:
        """Map 4 KB pages ``start_vpn, start_vpn + 1, ...`` to fresh frames.

        Appends each data frame to ``frames`` as it is allocated. Fills
        one leaf node at a time, in the allocation order of a per-page
        :meth:`map` loop over :meth:`FrameAllocator.alloc` frames: the
        leaf's first data frame, then the table nodes the leaf needs,
        then one :meth:`FrameAllocator.alloc_run` for the rest of the
        leaf. One read checks the leaf's slots for present entries and
        one write fills them. Raises on the first page already mapped,
        leaving the pages before it mapped and its own frame allocated,
        as the per-page loop does.
        """
        if perms is Perm.NONE:
            raise MemoryError_("mapping with no permissions; use unmap instead")
        flags = _encode(0, perms)
        allocator = self.allocator
        phys = self.phys
        vpn = start_vpn
        end_vpn = start_vpn + num_pages
        while vpn < end_vpn:
            index = vpn & 0x1FF
            count = min(end_vpn - vpn, _ENTRIES_PER_NODE - index)
            first = allocator.alloc()
            frames.append(first)
            leaf = self._descend_to(self._indices(vpn), depth=3, create=True)
            slots = (leaf << PAGE_SHIFT) + index * _PTE_SIZE
            # The present bit is bit 0 of each little-endian PTE's low byte.
            low_bytes = phys.read(slots, count * _PTE_SIZE)[::_PTE_SIZE]
            mapped = low_bytes.translate(_PRESENT_BIT).find(1)
            fresh = count if mapped < 0 else mapped  # pages to map here
            rest = allocator.alloc_run(count - 1 if mapped < 0 else mapped)
            frames.extend(rest)
            if fresh:
                ptes = [flags | (first << _PPN_SHIFT)]
                ptes += [flags | (ppn << _PPN_SHIFT) for ppn in rest[: fresh - 1]]
                phys.write(slots, struct.pack(f"<{fresh}Q", *ptes))
            if mapped >= 0:
                raise MemoryError_(f"vpn {vpn + mapped:#x} already mapped")
            vpn += count

    def unmap(self, vpn: int) -> Optional[Translation]:
        """Remove a mapping; returns the old translation (None if absent)."""
        old = self.translate_vpn(vpn)
        if old is None:
            return None
        idx = self._indices(old.vpn)
        if old.is_large:
            node = self._descend_to(idx, depth=2, create=False)
            self._write_pte(node, idx[2], 0)
        else:
            node = self._descend_to(idx, depth=3, create=False)
            self._write_pte(node, idx[3], 0)
        self.version += 1
        return old

    def protect(self, vpn: int, perms: Perm) -> Translation:
        """Change permissions of an existing mapping; returns the old one."""
        old = self.translate_vpn(vpn)
        if old is None:
            raise MemoryError_(f"vpn {vpn:#x} not mapped")
        idx = self._indices(old.vpn)
        if old.is_large:
            node = self._descend_to(idx, depth=2, create=False)
            self._write_pte(node, idx[2], _encode(old.ppn, perms, large=True))
        else:
            node = self._descend_to(idx, depth=3, create=False)
            self._write_pte(node, idx[3], _encode(old.ppn, perms))
        if not perms.allows(False) or (old.perms.writable and not perms.writable):
            self.version += 1  # downgrade: shootdown epoch advances
        return old

    def _descend_to(self, idx: Tuple[int, int, int, int], depth: int, create: bool) -> int:
        """Walk to the node at ``depth`` (0=root child ... 3=leaf node)."""
        node = self.root_ppn
        for level in range(depth):
            pte = self._read_pte(node, idx[level])
            if not pte & _FLAG_PRESENT:
                if not create:
                    raise MemoryError_("walk reached non-present interior entry")
                child = self.allocator.alloc()
                self._node_frames.append(child)
                # Interior entries carry RW so leaf entries fully control perms.
                self._write_pte(node, idx[level], _encode(child, Perm.RW))
                node = child
            else:
                if pte & _FLAG_LARGE:
                    raise MemoryError_("descending through a large-page entry")
                node = (pte & _PPN_MASK) >> _PPN_SHIFT
        return node

    # -- translation --------------------------------------------------------

    def translate_vpn(self, vpn: int) -> Optional[Translation]:
        """Walk the table for one VPN; None if unmapped."""
        translation, _footprint = self.walk(vpn)
        return translation

    def translate(self, vaddr: int) -> Optional[Translation]:
        return self.translate_vpn(vaddr >> PAGE_SHIFT)

    def walk(self, vpn: int) -> Tuple[Optional[Translation], List[int]]:
        """Full walk returning (translation, physical addresses touched).

        The footprint list is what a hardware walker would fetch — the ATS
        timing model charges one memory access per touched node.
        """
        idx = self._indices(vpn)
        node = self.root_ppn
        touched: List[int] = []
        for level in range(_LEVELS):
            pte_addr = (node << PAGE_SHIFT) + idx[level] * _PTE_SIZE
            touched.append(pte_addr)
            pte = self.phys.read_u64(pte_addr)
            if not pte & _FLAG_PRESENT:
                return None, touched
            ppn = (pte & _PPN_MASK) >> _PPN_SHIFT
            if level == 2 and pte & _FLAG_LARGE:
                base_vpn = vpn & ~(PAGES_PER_LARGE_PAGE - 1)
                return (
                    Translation(base_vpn, ppn, _decode_perms(pte), LARGE_PAGE_SIZE),
                    touched,
                )
            if level == _LEVELS - 1:
                return Translation(vpn, ppn, _decode_perms(pte)), touched
            node = ppn
        raise AssertionError("unreachable")

    # -- enumeration -----------------------------------------------------------

    def entries(self) -> Iterator[Translation]:
        """Iterate every present leaf mapping (4 KB and 2 MB)."""
        yield from self._walk_node(self.root_ppn, 0, 0)

    def _walk_node(self, node: int, level: int, vpn_prefix: int) -> Iterator[Translation]:
        shift = 9 * (_LEVELS - 1 - level)
        for i in range(_ENTRIES_PER_NODE):
            pte = self._read_pte(node, i)
            if not pte & _FLAG_PRESENT:
                continue
            vpn = vpn_prefix | (i << shift)
            ppn = (pte & _PPN_MASK) >> _PPN_SHIFT
            if level == 2 and pte & _FLAG_LARGE:
                yield Translation(vpn, ppn, _decode_perms(pte), LARGE_PAGE_SIZE)
            elif level == _LEVELS - 1:
                yield Translation(vpn, ppn, _decode_perms(pte))
            else:
                yield from self._walk_node(ppn, level + 1, vpn)

    def destroy(self) -> None:
        """Free every page-table node frame (mappings become invalid)."""
        for frame in self._node_frames:
            self.allocator.free(frame)
        self._node_frames = []
        self.version += 1
