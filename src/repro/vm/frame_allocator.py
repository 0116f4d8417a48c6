"""Physical frame allocator.

A simple first-fit allocator over 4 KB frames with support for contiguous
allocations (page-table nodes, Protection Tables — which the OS must carve
out of physical memory as a flat region, paper §3.1.1) and explicit
reservations (e.g. frame 0 is kept unmapped to catch null physical
pointers).

The free pool is represented as the complement of ``_used`` within the
allocator's window rather than as a materialized set of every free PPN:
a frame is free iff it lies in ``[base_frame, num_frames)`` and is not in
``_used``. Construction and :meth:`reset` are therefore O(reserved
frames) instead of O(window size) — the window covers hundreds of
thousands of frames, and every scan the allocator performs already
iterates ascending ``range``\\ s doing membership tests, so the two
representations produce bit-identical allocation orders.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.errors import MemoryError_
from repro.mem.address import PAGE_SHIFT, PAGE_SIZE
from repro.mem.phys_memory import PhysicalMemory

__all__ = ["FrameAllocator", "OutOfFramesError"]


class OutOfFramesError(MemoryError_):
    """Physical memory is exhausted."""


class FrameAllocator:
    """Tracks free/used 4 KB frames of a :class:`PhysicalMemory`.

    ``base_frame``/``frame_count`` confine the allocator to a window of
    physical memory — how a VMM hands each guest its partition while
    keeping Protection Tables in VMM-private frames (paper §3.4.2).
    """

    def __init__(
        self,
        phys: PhysicalMemory,
        reserve_low_frames: int = 1,
        base_frame: int = 0,
        frame_count: Optional[int] = None,
    ) -> None:
        self.phys = phys
        end_frame = phys.num_frames if frame_count is None else base_frame + frame_count
        if not (0 <= base_frame < end_frame <= phys.num_frames):
            raise MemoryError_(
                f"allocator window [{base_frame}, {end_frame}) outside memory"
            )
        self.base_frame = base_frame
        self.num_frames = end_frame  # exclusive upper bound of the window
        first_free = max(base_frame, reserve_low_frames)
        self._used: Set[int] = set(range(base_frame, first_free))
        self._next_hint = first_free

    # -- queries ---------------------------------------------------------

    @property
    def free_frames(self) -> int:
        return (self.num_frames - self.base_frame) - len(self._used)

    @property
    def used_frames(self) -> int:
        return len(self._used)

    def is_allocated(self, ppn: int) -> bool:
        return ppn in self._used

    def is_free(self, ppn: int) -> bool:
        return self.base_frame <= ppn < self.num_frames and ppn not in self._used

    # -- allocation --------------------------------------------------------

    def alloc(self, zero: bool = True) -> int:
        """Allocate one frame; returns its PPN."""
        if self.free_frames == 0:
            raise OutOfFramesError("no free physical frames")
        # Prefer an ascending scan from the hint for locality/determinism.
        ppn = self._scan_from(self._next_hint)
        self._used.add(ppn)
        self._next_hint = ppn + 1
        if zero:
            self.phys.zero_range(ppn << PAGE_SHIFT, PAGE_SIZE)
        return ppn

    def alloc_run(self, count: int) -> Sequence[int]:
        """Allocate ``count`` zeroed frames; returns the PPNs that
        ``count`` :meth:`alloc` calls would, in the same order.

        When the ``count`` frames from the hint up are all free they are
        taken in one step; otherwise the frames come from the per-frame
        scan. Running out part way frees the frames this call took
        (zeroed, as :meth:`alloc` leaves them) and raises.
        """
        start = max(self._next_hint, self.base_frame)
        end = start + count
        used = self._used
        if end <= self.num_frames and used.isdisjoint(range(start, end)):
            used.update(range(start, end))
            self._next_hint = end
            self.phys.zero_range(start << PAGE_SHIFT, count * PAGE_SIZE)
            return range(start, end)
        ppns: List[int] = []
        try:
            for _ in range(count):
                ppns.append(self.alloc())
        except OutOfFramesError:
            for ppn in ppns:
                self.free(ppn)
            raise
        return ppns

    def alloc_contiguous(self, count: int, zero: bool = True, align: int = 1) -> int:
        """Allocate ``count`` physically contiguous frames; returns base PPN.

        ``align`` constrains the base PPN to a multiple (e.g. 512 for a
        2 MB large-page frame, which hardware requires to be 2 MB-aligned
        physically as well as virtually).
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if align <= 0:
            raise ValueError("alignment must be positive")
        used = self._used
        run = 0
        for ppn in range(self.base_frame, self.num_frames):
            if ppn not in used:
                run += 1
                if run >= count:
                    base = ppn - count + 1
                    if base % align:
                        continue  # keep extending until an aligned base fits
                    used.update(range(base, base + count))
                    if zero:
                        self.phys.zero_range(base << PAGE_SHIFT, count * PAGE_SIZE)
                    return base
            else:
                run = 0
        raise OutOfFramesError(f"no contiguous run of {count} frames (align={align})")

    def free(self, ppn: int) -> None:
        """Return a frame to the free pool."""
        if ppn not in self._used:
            raise MemoryError_(f"double free of frame {ppn:#x}")
        self._used.discard(ppn)
        if ppn < self._next_hint:
            self._next_hint = ppn

    def free_contiguous(self, base_ppn: int, count: int) -> None:
        for ppn in range(base_ppn, base_ppn + count):
            self.free(ppn)

    def _scan_from(self, start: int) -> int:
        used = self._used
        lo = self.base_frame
        hi = self.num_frames
        if start < lo:
            start = lo
        for ppn in range(start, hi):
            if ppn not in used:
                return ppn
        for ppn in range(lo, min(start, hi)):
            if ppn not in used:
                return ppn
        raise OutOfFramesError("no free physical frames")

    def snapshot_used(self) -> List[int]:
        return sorted(self._used)
