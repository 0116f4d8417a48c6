"""The Border Control engine (paper §3.2, Fig. 3).

One :class:`BorderControl` instance guards one accelerator. It owns the
accelerator's Protection Table and Border Control Cache and implements the
five events of Fig. 3:

(a) **process initialization** — allocate and zero the table on first use,
    program base/bounds, bump the use count;
(b) **Protection Table insertion** — on every ATS translation, OR the
    translation's permissions into the table (write-through) and the BCC;
(c) **accelerator memory request** — bounds-check, then look up the PPN in
    the BCC (filling from the table on a miss) and verify the requested
    permission; block and notify the OS on failure;
(d) **memory-mapping update** — on permission downgrades, after the
    accelerator's caches are flushed, either zero the whole table and
    invalidate the BCC or selectively revoke the affected pages;
(e) **process completion** — invalidate everything, zero the table, and
    release it once no process is using the accelerator.

The engine is functional; the timing wrapper that charges BCC/Protection
Table latencies lives in :mod:`repro.accel.border_port`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.core.bcc import BCCConfig, BorderControlCache
from repro.core.permissions import Perm
from repro.core.protection_table import ProtectionTable
from repro.errors import BorderControlViolation, ConfigurationError
from repro.mem.address import PAGE_SHIFT
from repro.mem.phys_memory import PhysicalMemory
from repro.sim.stats import StatDomain
from repro.sim.tracing import Events
from repro.vm.frame_allocator import FrameAllocator

__all__ = ["AccessDecision", "BorderControl", "ViolationRecord"]


@dataclass(frozen=True)
class AccessDecision:
    """Outcome of one border check (Fig. 3c)."""

    allowed: bool
    perms: Perm
    bcc_hit: bool  # True if no Protection Table access was needed
    out_of_bounds: bool = False


@dataclass(frozen=True)
class ViolationRecord:
    """What the OS learns when a request is blocked (§3.2.3)."""

    accel_id: str
    paddr: int
    write: bool
    out_of_bounds: bool
    perms_held: Perm

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        why = (
            "address beyond protection-table bounds"
            if self.out_of_bounds
            else f"page permissions {self.perms_held.describe()}"
        )
        return f"{self.accel_id}: blocked {kind} at {self.paddr:#x} ({why})"


#: Interned :class:`AccessDecision` instances. The type is frozen and has
#: only a handful of distinct values (allowed x perms x bcc_hit x oob), so
#: the hot check path reuses singletons instead of allocating a dataclass
#: per memory access.
_DECISION_CACHE: dict = {}


def _decision(
    allowed: bool, perms: Perm, bcc_hit: bool, out_of_bounds: bool = False
) -> AccessDecision:
    key = (allowed, int(perms), bcc_hit, out_of_bounds)
    cached = _DECISION_CACHE.get(key)
    if cached is None:
        cached = AccessDecision(allowed, perms, bcc_hit, out_of_bounds)
        _DECISION_CACHE[key] = cached
    return cached


class BorderControl:
    """Sandboxes one accelerator's memory traffic.

    It emits on ``events``, its machine's stream: a ``decision`` for every
    check and a ``violation`` for every block.
    """

    def __init__(
        self,
        accel_id: str,
        phys: PhysicalMemory,
        allocator: FrameAllocator,
        bcc_config: Optional[BCCConfig] = BCCConfig(),
        stats: Optional[StatDomain] = None,
        strict: bool = False,
        table_kind: str = "flat",
        events: Optional[Events] = None,
    ) -> None:
        if table_kind not in ("flat", "sparse"):
            raise ConfigurationError(
                f"table_kind must be 'flat' or 'sparse', got {table_kind!r}"
            )
        self.accel_id = accel_id
        self.phys = phys
        self.allocator = allocator
        self.bcc_config = bcc_config
        self.strict = strict
        # "flat" is the paper's evaluated layout (single-access lookups);
        # "sparse" is the §3.1.1 demand-allocated alternative.
        self.table_kind = table_kind
        self.stats = stats or StatDomain(f"bc[{accel_id}]")
        self.table: Optional[ProtectionTable] = None
        self.bcc: Optional[BorderControlCache] = None
        self.use_count = 0
        self.asids: Set[int] = set()
        # Epoch fence (recovery): the current attach epoch. Every attach
        # and every epoch-fenced reset advances it; requests stamped with
        # an older epoch are stale replays from a pre-reset device and
        # are rejected without touching the Protection Table.
        self.epoch = 0
        self.violations: List[ViolationRecord] = []
        self.events = events if events is not None else Events()
        # Held so the hot check path pays one falsy test and nothing else
        # while no one observes decisions.
        self._decided = self.events.subscribers("decision")
        self._checks = self.stats.counter("checks")
        self._read_checks = self.stats.counter("read_checks")
        self._write_checks = self.stats.counter("write_checks")
        self._violation_count = self.stats.counter("violations")
        self._pt_accesses = self.stats.counter("pt_accesses")
        self._insertions = self.stats.counter("insertions")
        self._downgrades = self.stats.counter("downgrades")
        self._stale_rejections = self.stats.counter("stale_epoch_rejections")

    # -- OS interface ------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.table is not None

    @property
    def has_bcc(self) -> bool:
        """Whether this engine is configured with a Border Control Cache
        (the cache itself exists only while a process is active)."""
        return self.bcc_config is not None

    # -- epoch fence (recovery subsystem) -----------------------------------

    def advance_epoch(self) -> int:
        """Move to a new attach epoch; returns it. Called on every attach
        and on every epoch-fenced accelerator reset — *before* the device
        is touched, so anything the old device replays is already stale."""
        self.epoch += 1
        return self.epoch

    def admit_epoch(self, epoch: Optional[int]) -> bool:
        """Is traffic stamped ``epoch`` current? A single register compare
        in hardware. ``None`` (untagged traffic, non-recovery configs) is
        always admitted; an older epoch is a stale replay and is rejected
        and counted."""
        if epoch is None or epoch >= self.epoch:
            return True
        self._stale_rejections.inc()
        return False

    @property
    def stale_epoch_rejections(self) -> int:
        return self._stale_rejections.value

    # -- (a) process initialization ------------------------------------------

    def process_init(self, asid: int) -> bool:
        """A process starts using the accelerator. Returns True if a fresh
        Protection Table was allocated (the accelerator was idle)."""
        if asid in self.asids:
            raise ConfigurationError(
                f"asid {asid} already running on accelerator {self.accel_id}"
            )
        self.asids.add(asid)
        self.use_count += 1
        if self.table is not None:
            return False
        if self.table_kind == "sparse":
            from repro.core.sparse_table import SparseProtectionTable

            self.table = SparseProtectionTable(self.phys, self.allocator)
        else:
            self.table = ProtectionTable.allocate(self.phys, self.allocator)
        if self.bcc_config is not None:
            self.bcc = BorderControlCache(self.bcc_config, self.stats.child("bcc"))
        return True

    # -- (b) Protection Table insertion -----------------------------------------

    def insert_translation(self, ppn: int, perms: Perm, page_count: int = 1) -> int:
        """Record permissions for a completed ATS translation.

        ``page_count`` > 1 handles large pages (§3.4.4): a 2 MB translation
        updates 512 consecutive 4 KB entries. Returns how many table fields
        actually changed (0 when the BCC/table already had the bits).
        """
        table = self._require_table()
        self._insertions.value += 1
        changed = 0
        for offset in range(page_count):
            page = ppn + offset
            if not table.covers(page):
                continue  # translations to non-existent memory grant nothing
            if self.bcc is not None:
                if self.bcc.insert_permission(page, perms, table):
                    changed += 1
                    self._pt_accesses.value += 1
            else:
                if table.grant(page, perms):
                    changed += 1
                    self._pt_accesses.value += 1
        return changed

    # -- (c) accelerator memory request ---------------------------------------------

    def check(self, paddr: int, write: bool) -> AccessDecision:
        """Check one border crossing; blocks and notifies the OS on failure.

        Every check is a ``decision`` event, with the decision the caller
        sees; a blocked one is also a ``violation`` event, after it.
        """
        table = self._require_table()
        self._checks.value += 1
        if write:
            self._write_checks.value += 1
        else:
            self._read_checks.value += 1
        ppn = paddr >> PAGE_SHIFT
        if not table.covers(ppn):
            decision = _decision(False, Perm.NONE, bcc_hit=False, out_of_bounds=True)
            if self._decided:
                self.events.emit("decision", self.accel_id, paddr, write, decision)
            self._report(paddr, write, decision)
            return decision
        if self.bcc is not None:
            hit, perms = self.bcc.lookup(ppn, table)
            if not hit:
                self._pt_accesses.value += 1
        else:
            hit, perms = False, table.get(ppn)
            self._pt_accesses.value += 1
        decision = _decision(perms.allows(write), perms, hit)
        if self._decided:
            self.events.emit("decision", self.accel_id, paddr, write, decision)
        if not decision.allowed:
            self._report(paddr, write, decision)
        return decision

    def _report(self, paddr: int, write: bool, decision: AccessDecision) -> None:
        record = ViolationRecord(
            accel_id=self.accel_id,
            paddr=paddr,
            write=write,
            out_of_bounds=decision.out_of_bounds,
            perms_held=decision.perms,
        )
        self.violations.append(record)
        self._violation_count.inc()
        self.events.emit("violation", record)
        if self.strict:
            raise BorderControlViolation(paddr, write, self.accel_id)

    # -- (d) memory-mapping update ----------------------------------------------------

    def downgrade_page(self, ppn: int) -> None:
        """Selective downgrade: revoke one page after caches are flushed.

        The caller (the OS kernel) is responsible for first writing back /
        flushing accelerator cache blocks of this page (§3.2.4); Border
        Control then revokes lazily — the page re-inserts through the ATS
        if it is still legitimately mapped.
        """
        table = self._require_table()
        self._downgrades.inc()
        table.revoke(ppn)
        if self.bcc is not None:
            self.bcc.invalidate_page(ppn, table)

    def downgrade_all(self) -> None:
        """Full downgrade: zero the table, invalidate the BCC (§3.2.4).

        Equivalent in correctness to selective revocation when the whole
        accelerator cache is flushed; permissions lazily re-populate.
        """
        table = self._require_table()
        self._downgrades.inc()
        table.zero()
        if self.bcc is not None:
            self.bcc.invalidate_all()

    # -- (e) process completion ---------------------------------------------------------

    def process_complete(self, asid: int) -> bool:
        """A process finishes. Returns True if the table was torn down
        (use count reached zero and the memory was reclaimed)."""
        if asid not in self.asids:
            raise ConfigurationError(
                f"asid {asid} is not running on accelerator {self.accel_id}"
            )
        table = self._require_table()
        self.asids.discard(asid)
        self.use_count -= 1
        # Access permissions for the departing process are revoked by
        # zeroing; co-scheduled processes lazily re-populate (§3.2.5, §3.3).
        table.zero()
        if self.bcc is not None:
            self.bcc.invalidate_all()
        if self.use_count == 0:
            table.deallocate(self.allocator)
            self.table = None
            self.bcc = None
            return True
        return False

    # -- internals ------------------------------------------------------------

    def _require_table(self) -> ProtectionTable:
        if self.table is None:
            raise ConfigurationError(
                f"accelerator {self.accel_id} has no active Protection Table "
                "(no process initialized)"
            )
        return self.table

    # -- reporting --------------------------------------------------------------

    @property
    def checks(self) -> int:
        return self._checks.value

    @property
    def pt_accesses(self) -> int:
        return self._pt_accesses.value

    def __repr__(self) -> str:  # pragma: no cover
        state = "active" if self.active else "idle"
        return f"BorderControl({self.accel_id!r}, {state}, use_count={self.use_count})"
