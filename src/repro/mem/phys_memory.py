"""Byte-addressable physical memory with real backing data.

The functional model stores actual bytes so that safety properties are
observable end to end: a secret written by one process is *really there*
in physical memory, and a blocked border crossing *really* fails to read
it. Storage is allocated lazily at frame (4 KB) granularity so a 16 GB
simulated address space costs only what is touched.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Tuple

from repro.errors import UnmappedAddressError
from repro.mem.address import PAGE_SHIFT, PAGE_SIZE, ppn_of

__all__ = ["PhysicalMemory"]

_OFFSET_MASK = PAGE_SIZE - 1
_U64 = struct.Struct("<Q")
_U64_MASK = (1 << 64) - 1


class PhysicalMemory:
    """Lazily backed simulated physical memory.

    Reads of never-written frames return zeros (DRAM content after the OS
    scrubs a frame); writes allocate the frame's backing store on demand.
    Accesses beyond ``size`` raise :class:`UnmappedAddressError` — physical
    memory has a hard top, which is what Border Control's bounds register
    checks against.

    Every accessor first tries the common case — a non-empty access inside
    one frame below ``size``, which covers every 128 B block, 8-byte PTE
    and Protection Table byte — with one dict lookup. Everything else
    (frame-crossing, zero-length or out-of-range accesses) takes the
    general per-frame loop behind :meth:`_check`.
    """

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError("physical memory size must be a positive multiple of 4 KB")
        self.size = size
        self.num_frames = size >> PAGE_SHIFT
        self._frames: Dict[int, bytearray] = {}

    # -- bounds ------------------------------------------------------------

    def contains(self, paddr: int, length: int = 1) -> bool:
        return 0 <= paddr and paddr + length <= self.size

    def _check(self, paddr: int, length: int) -> None:
        if length < 0:
            raise ValueError("negative access length")
        if not self.contains(paddr, max(1, length)):
            raise UnmappedAddressError(
                f"physical access [{paddr:#x}, +{length}) beyond top of memory "
                f"({self.size:#x})"
            )

    # -- data access ---------------------------------------------------------

    def read(self, paddr: int, length: int) -> bytes:
        """Read ``length`` bytes starting at physical address ``paddr``."""
        offset = paddr & _OFFSET_MASK
        # Inside one frame, ``paddr < size`` bounds the whole access
        # because ``size`` is a multiple of the frame size.
        if 0 < length <= PAGE_SIZE - offset and 0 <= paddr < self.size:
            backing = self._frames.get(paddr >> PAGE_SHIFT)
            if backing is None:
                return bytes(length)
            return bytes(backing[offset : offset + length])
        self._check(paddr, length)
        out = bytearray(length)
        pos = 0
        addr = paddr
        while pos < length:
            frame = ppn_of(addr)
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - offset)
            backing = self._frames.get(frame)
            if backing is not None:
                out[pos : pos + chunk] = backing[offset : offset + chunk]
            pos += chunk
            addr += chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        """Write ``data`` starting at physical address ``paddr``."""
        length = len(data)
        offset = paddr & _OFFSET_MASK
        if 0 < length <= PAGE_SIZE - offset and 0 <= paddr < self.size:
            self._backing(paddr >> PAGE_SHIFT)[offset : offset + length] = data
            return
        self._check(paddr, length)
        pos = 0
        addr = paddr
        while pos < length:
            frame = ppn_of(addr)
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - offset)
            self._backing(frame)[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk
            addr += chunk

    # -- word helpers ---------------------------------------------------------

    def read_u64(self, paddr: int) -> int:
        offset = paddr & _OFFSET_MASK
        if offset <= PAGE_SIZE - 8 and 0 <= paddr < self.size:
            backing = self._frames.get(paddr >> PAGE_SHIFT)
            return 0 if backing is None else _U64.unpack_from(backing, offset)[0]
        return int.from_bytes(self.read(paddr, 8), "little")

    def write_u64(self, paddr: int, value: int) -> None:
        offset = paddr & _OFFSET_MASK
        if offset <= PAGE_SIZE - 8 and 0 <= paddr < self.size:
            _U64.pack_into(self._backing(paddr >> PAGE_SHIFT), offset, value & _U64_MASK)
            return
        self.write(paddr, (value & _U64_MASK).to_bytes(8, "little"))

    # -- frame management -------------------------------------------------------

    def _backing(self, frame: int) -> bytearray:
        """The frame's backing store, allocated (all zero) on first write."""
        backing = self._frames.get(frame)
        if backing is None:
            backing = self._frames[frame] = bytearray(PAGE_SIZE)
        return backing

    def zero_range(self, paddr: int, length: int) -> None:
        """Zero ``[paddr, paddr+length)``, dropping fully covered frames."""
        offset = paddr & _OFFSET_MASK
        if 0 < length <= PAGE_SIZE - offset and 0 <= paddr < self.size:
            frame = paddr >> PAGE_SHIFT
            if length == PAGE_SIZE:
                self._frames.pop(frame, None)
            else:
                backing = self._frames.get(frame)
                if backing is not None:
                    backing[offset : offset + length] = bytes(length)
            return
        whole_frames = not (offset | length & _OFFSET_MASK)
        if whole_frames and 0 < length and 0 <= paddr <= self.size - length:
            # A run of fresh frames: drop the backed ones, scanning
            # whichever of the range and the backing map is smaller.
            frames = self._frames
            first = paddr >> PAGE_SHIFT
            end = first + (length >> PAGE_SHIFT)
            if end - first > len(frames):
                doomed = [frame for frame in frames if first <= frame < end]
            else:
                doomed = range(first, end)
            for frame in doomed:
                frames.pop(frame, None)
            return
        self._check(paddr, length)
        end = paddr + length
        addr = paddr
        while addr < end:
            frame = ppn_of(addr)
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(end - addr, PAGE_SIZE - offset)
            if chunk == PAGE_SIZE:
                self._frames.pop(frame, None)
            else:
                backing = self._frames.get(frame)
                if backing is not None:
                    backing[offset : offset + chunk] = bytes(chunk)
            addr += chunk

    def touched_frames(self) -> Iterator[Tuple[int, bytearray]]:
        """Iterate over (frame number, backing) for frames ever written."""
        return iter(sorted(self._frames.items()))

    @property
    def resident_bytes(self) -> int:
        """Host-side memory actually allocated for backing store."""
        return len(self._frames) * PAGE_SIZE

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PhysicalMemory(size={self.size / 2**20:g} MiB, "
            f"resident={self.resident_bytes / 2**20:g} MiB)"
        )
