"""The Address Translation Service (paper §2.3, §3.2.2).

The ATS takes a virtual address from an accelerator, walks the process
page table on the accelerator's behalf, and returns the physical address.
It is trusted hardware. Two details matter for Border Control:

* the ATS validates that the address-space ID the accelerator presents
  corresponds to a process actually running on that accelerator — a rogue
  accelerator cannot translate through someone else's page table;
* every completed translation is reported to the accelerator's Border
  Control instance, which ORs the translation's permissions into the
  Protection Table (Fig. 3b). This is what keeps the lazily populated
  table up to date for every *legitimate* physical address the
  accelerator can hold.

Timing: a trusted, shared L2 TLB (512 entries, Table 3) caches recent
translations; misses pay a hardware page walk charged one DRAM access per
radix level actually touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Set, Tuple

from repro.core.border_control import BorderControl
from repro.mem.address import PAGE_SHIFT
from repro.mem.dram import DRAM
from repro.sim.engine import Engine
from repro.sim.stats import StatDomain
from repro.vm.page_table import PageTable
from repro.vm.tlb import TLB, TLBEntry

__all__ = ["ATS", "ATSConfig"]

_NO_ASIDS = frozenset()  # for accelerators allowed no address space


@dataclass(frozen=True)
class ATSConfig:
    """Timing and capacity parameters of the translation service."""

    l2_tlb_entries: int = 512  # Table 3: shared L2 TLB (trusted)
    request_latency_ticks: int = 0  # accel -> IOMMU round trip, set by builder
    l2_tlb_latency_ticks: int = 0
    walk_step_bytes: int = 8  # one PTE fetched per radix level
    # Resilience: how often a transiently faulted translation request is
    # replayed (exponential backoff) before the ATS reports failure. Only
    # exercised when a fault injector is installed — see ``ATS.fault_injector``.
    max_retries: int = 0
    retry_backoff_ticks: int = 0


class ATS:
    """Translation service shared by every accelerator in the system."""

    def __init__(
        self,
        engine: Engine,
        dram: DRAM,
        config: ATSConfig,
        stats: Optional[StatDomain] = None,
    ) -> None:
        self._engine = engine
        self._dram = dram
        self.config = config
        self.stats = stats or StatDomain("ats")
        self.l2_tlb = TLB("iommu-l2-tlb", config.l2_tlb_entries, self.stats.child("l2_tlb"))
        self._page_tables: Dict[int, PageTable] = {}  # asid -> table
        self._accel_asids: Dict[str, Set[int]] = {}  # accel -> asids it may use
        self._border_controls: Dict[str, BorderControl] = {}
        self._translations = self.stats.counter("translations")
        self._walks = self.stats.counter("page_walks")
        self._rejected = self.stats.counter("rejected_asids")
        self._failed = self.stats.counter("failed_walks")
        self._coalesced = self.stats.counter("coalesced_walks")
        self._injected_faults = self.stats.counter("injected_faults")
        self._retries = self.stats.counter("retries")
        # Chaos hook: when set, called once per translation attempt and
        # returning True makes that attempt fault transiently (a flaky
        # IOMMU link / lost completion). Retried per ``config.max_retries``.
        self.fault_injector: Optional[Callable[[], bool]] = None
        # Epoch fence (recovery): when set, called with the requesting
        # accelerator's id; returning False means the request was issued
        # under a stale attach epoch (a pre-reset device still draining
        # its queues) and the ATS refuses to translate for it.
        self.epoch_gate: Optional[Callable[[str], bool]] = None
        self._stale_epoch = self.stats.counter("stale_epoch_rejections")
        # In-flight page walks, keyed by (asid, vpn): concurrent requests
        # for the same translation ride the first walk instead of issuing
        # duplicates (page-walk coalescing, as hardware walkers do).
        self._pending_walks: Dict[Tuple[int, int], object] = {}

    # -- OS-side setup (Fig. 3a) -----------------------------------------------

    def register_address_space(self, asid: int, page_table: PageTable) -> None:
        self._page_tables[asid] = page_table

    def unregister_address_space(self, asid: int) -> None:
        self._page_tables.pop(asid, None)
        self.l2_tlb.invalidate_asid(asid)

    def allow(self, accel_id: str, asid: int) -> None:
        """Permit an accelerator to translate through an address space."""
        self._accel_asids.setdefault(accel_id, set()).add(asid)

    def disallow(self, accel_id: str, asid: int) -> None:
        self._accel_asids.get(accel_id, set()).discard(asid)

    def attach_border_control(self, accel_id: str, bc: Optional[BorderControl]) -> None:
        """Wire translation completions to a Border Control instance."""
        if bc is None:
            self._border_controls.pop(accel_id, None)
        else:
            self._border_controls[accel_id] = bc

    # -- shootdown listener ------------------------------------------------------

    def shootdown(self, asid: int, vpn: Optional[int]) -> None:
        if vpn is None:
            self.l2_tlb.invalidate_asid(asid)
        else:
            self.l2_tlb.invalidate(asid, vpn)

    # -- the translation service ----------------------------------------------------

    def translate(
        self, accel_id: str, asid: int, vpn: int, timed: bool = True
    ) -> Generator:
        """Service one translation request (simulation generator).

        Returns the L2 TLB's :class:`~repro.vm.tlb.TLBEntry` for the
        mapping, or ``None`` when the VPN is unmapped or the accelerator
        is not entitled to the address space. The entry is immutable and
        shared: accelerator TLBs cache the same object. An injected
        transient fault (see ``fault_injector``) is replayed up to
        ``config.max_retries`` times with exponential backoff before it
        surfaces as a failed (``None``) translation.
        """
        attempt = 0
        while self.fault_injector is not None and self.fault_injector():
            self._injected_faults.inc()
            if attempt >= self.config.max_retries:
                self._failed.inc()
                return None
            attempt += 1
            self._retries.inc()
            if timed:
                backoff = self.config.retry_backoff_ticks * (1 << (attempt - 1))
                if backoff:
                    yield backoff

        # The attempt that goes through (the pre-resilience service path).
        self._translations.value += 1
        if timed and self.config.request_latency_ticks:
            yield self.config.request_latency_ticks
        if asid not in self._accel_asids.get(accel_id, _NO_ASIDS):
            # §3.2.2: the ATS checks the ASID corresponds to a process
            # running on the requesting accelerator.
            self._rejected.inc()
            return None
        if self.epoch_gate is not None and not self.epoch_gate(accel_id):
            # Stale attach epoch: the device asking is pre-reset replayed
            # state; granting it a translation would repopulate the
            # Protection Table on its behalf mid-recovery.
            self._stale_epoch.inc()
            return None

        entry = self.l2_tlb.lookup(asid, vpn)
        if entry is not None:
            if timed and self.config.l2_tlb_latency_ticks:
                yield self.config.l2_tlb_latency_ticks
            self._insert_into_border_control(accel_id, entry)
            return entry

        table = self._page_tables.get(asid)
        if table is None:
            self._failed.inc()
            return None

        # Coalesce with an identical in-flight walk, then re-check the TLB
        # (the finished walk inserted its — possibly large — entry).
        walk_key = (asid, vpn)
        pending = self._pending_walks.get(walk_key)
        if pending is not None and timed:
            self._coalesced.value += 1
            yield pending
            entry = self.l2_tlb.lookup(asid, vpn)
            if entry is None:
                self._failed.inc()
                return None
            self._insert_into_border_control(accel_id, entry)
            return entry

        walk_done = self._engine.event() if timed else None
        if timed:
            self._pending_walks[walk_key] = walk_done
        try:
            self._walks.value += 1
            translation, footprint = table.walk(vpn)
            if timed:
                for _pte_addr in footprint:
                    yield self._dram.access(self.config.walk_step_bytes, write=False)
        finally:
            if timed:
                self._pending_walks.pop(walk_key, None)
                walk_done.succeed()
        if translation is None:
            self._failed.inc()
            return None

        # Cache the mapping at its native granularity: one TLB entry
        # covers a whole 2 MB page (§3.4.4).
        entry = TLBEntry(
            asid,
            translation.vpn,
            translation.ppn,
            translation.perms,
            translation.page_size >> PAGE_SHIFT,
        )
        self.l2_tlb.insert(entry)
        self._insert_into_border_control(accel_id, entry)
        return entry

    def _insert_into_border_control(self, accel_id: str, entry: TLBEntry) -> None:
        bc = self._border_controls.get(accel_id)
        if bc is not None and bc.active:
            changed = bc.insert_translation(entry.ppn, entry.perms, entry.pages)
            if changed:
                # The BCC write-through to the in-memory Protection Table
                # consumes DRAM bandwidth (asynchronously; no stall).
                self._dram.access(8, write=True)

    # -- introspection ---------------------------------------------------------------

    @property
    def translations(self) -> int:
        return self._translations.value

    @property
    def walks(self) -> int:
        return self._walks.value
