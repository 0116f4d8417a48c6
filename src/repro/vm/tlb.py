"""Translation lookaside buffers with ASID tags and shootdown support.

The same structure models the accelerator's per-CU L1 TLBs (untrusted, 64
entries in Table 3) and the shared trusted L2 TLB at the IOMMU/ATS (512
entries). Shootdowns — invalidation of one VPN or of everything — are what
couple memory-mapping updates to Border Control actions (paper §3.2.4).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.permissions import Perm
from repro.sim.stats import StatDomain

__all__ = ["TLB", "TLBEntry"]


@dataclass(frozen=True)
class TLBEntry:
    """A cached translation (4 KB by default; ``pages`` > 1 for 2 MB)."""

    asid: int
    vpn: int
    ppn: int
    perms: Perm
    pages: int = 1  # 512 for a 2 MB large-page entry (§3.4.4)

    def covers(self, vpn: int) -> bool:
        return self.vpn <= vpn < self.vpn + self.pages

    def ppn_for(self, vpn: int) -> int:
        """PPN of a 4 KB page inside this (possibly large) mapping."""
        return self.ppn + (vpn - self.vpn)


class TLB:
    """Fully associative, LRU-replaced TLB with large-page entries."""

    def __init__(self, name: str, entries: int, stats: Optional[StatDomain] = None) -> None:
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.name = name
        self.capacity = entries
        # Key: (asid, base vpn, is_large). Large entries are base-aligned.
        self._entries: "OrderedDict[Tuple[int, int, bool], TLBEntry]" = OrderedDict()
        stats = stats or StatDomain(name)
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._shootdowns = stats.counter("shootdowns")

    @staticmethod
    def _key(entry: TLBEntry) -> Tuple[int, int, bool]:
        return (entry.asid, entry.vpn, entry.pages > 1)

    def lookup(self, asid: int, vpn: int) -> Optional[TLBEntry]:
        """LRU-updating lookup; counts a hit or miss."""
        entries = self._entries
        key = (asid, vpn, False)
        entry = entries.get(key)
        if entry is None:
            # Large entries are 512-page aligned (2 MB mappings).
            key = (asid, vpn & ~0x1FF, True)
            entry = entries.get(key)
            if entry is None:
                self._misses.value += 1
                return None
        entries.move_to_end(key)
        self._hits.value += 1
        return entry

    def probe(self, asid: int, vpn: int) -> Optional[Tuple[Tuple[int, int, bool], TLBEntry]]:
        """Side-effect-free lookup for the batched-replay fast path.

        Returns ``(key, entry)`` on a hit, ``None`` on a miss — without
        touching recency or the hit/miss counters, so a caller that falls
        back to :meth:`lookup` after a miss does not double count.
        """
        key = (asid, vpn, False)
        entry = self._entries.get(key)
        if entry is None:
            key = (asid, vpn & ~0x1FF, True)
            entry = self._entries.get(key)
            if entry is None:
                return None
        return key, entry

    def commit_hit(self, key: Tuple[int, int, bool]) -> None:
        """Commit the hit-path side effects of :meth:`lookup` (recency
        touch + hit counter) for a key returned by :meth:`probe`."""
        self._entries.move_to_end(key)
        self._hits.value += 1

    def insert(self, entry: TLBEntry) -> None:
        key = self._key(entry)
        if key not in self._entries and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = entry
        self._entries.move_to_end(key)

    # -- shootdown ---------------------------------------------------------

    def invalidate(self, asid: int, vpn: int) -> bool:
        """Invalidate the translation covering ``vpn``; True if present."""
        self._shootdowns.inc()
        hit = self._entries.pop((asid, vpn, False), None) is not None
        hit |= self._entries.pop((asid, vpn & ~0x1FF, True), None) is not None
        return hit

    def invalidate_asid(self, asid: int) -> int:
        """Invalidate every translation of one address space."""
        self._shootdowns.inc()
        doomed = [key for key in self._entries if key[0] == asid]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def invalidate_all(self) -> int:
        """Full TLB flush."""
        self._shootdowns.inc()
        count = len(self._entries)
        self._entries.clear()
        return count

    def reset(self) -> None:
        """Warm-reuse reset: drop every entry without counting a shootdown
        (counters are zeroed separately through the owning StatDomain)."""
        self._entries.clear()

    # -- introspection ------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def contains(self, asid: int, vpn: int) -> bool:
        return (asid, vpn, False) in self._entries or (
            asid,
            vpn & ~0x1FF,
            True,
        ) in self._entries

    def __repr__(self) -> str:  # pragma: no cover
        return f"TLB({self.name}, {len(self._entries)}/{self.capacity})"
