"""Lockstep driver: the real Border Control stack vs the reference monitor.

A :class:`LockstepHarness` owns one complete real system — ``Kernel`` with
the QUARANTINE violation policy, ``SandboxManager``/``BorderControl``/
``BCC`` per device, real ``AcceleratorBase`` devices, real bytes in
``PhysicalMemory`` — and one :class:`~repro.verify.monitor.ReferenceMonitor`.
Every operation (:meth:`apply`) is executed against both and the outcomes
compared; :meth:`check_invariants` then cross-checks the full visible
state. Any disagreement raises :class:`LockstepViolation`.

Operations are plain dicts with all nondeterminism already resolved
(device index, page number, staleness), so a recorded trace replays
byte-for-byte: the Hypothesis machine, the exhaustive small-model
checker, and the ``verify`` CLI's counterexample bundles all speak this
one op vocabulary.

The secret oracle: a second process owns the
:class:`~repro.adversary.SecretPage`, which no device is ever granted.
Confidentiality and integrity escapes are therefore *directly
observable* — the pattern read back changed, or a device access to that
frame was allowed — rather than inferred from bookkeeping.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.accel.base import AcceleratorBase
from repro.adversary import SecretPage, escape_failures
from repro.core.bcc import BCCConfig
from repro.core.permissions import Perm
from repro.errors import MemoryError_
from repro.mem.address import PAGE_SHIFT
from repro.mem.phys_memory import PhysicalMemory
from repro.osmodel.kernel import Kernel, ViolationPolicy
from repro.verify.monitor import (
    Lifecycle,
    ReferenceMonitor,
    REASON_STALE,
)

__all__ = [
    "HarnessConfig",
    "LockstepHarness",
    "LockstepViolation",
    "OpRejected",
    "OP_NAMES",
]


class LockstepViolation(AssertionError):
    """The real stack and the reference monitor disagreed.

    Subclasses ``AssertionError`` so Hypothesis treats it as a genuine
    counterexample and shrinks the trace that produced it.
    """


class OpRejected(Exception):
    """An operation's gate failed (e.g. translate on a detached device).

    Raised *before* either side is touched, so a rejected op leaves both
    models unchanged. The small-model checker prunes sequences at the
    first rejection; the Hypothesis machine's preconditions make it
    unreachable there.
    """


#: Every operation :meth:`LockstepHarness.apply` understands.
OP_NAMES = (
    "mmap",
    "munmap",
    "mprotect",
    "translate",
    "retry",
    "access",
    "context-switch",
    "shootdown",
    "reset",
    "readmit",
    "detach",
    "attach",
    "cpu-fallback",
)

#: What an allowed device write deposits (so escapes would be visible).
MARKER = b"\xa5BC!"


@dataclass(frozen=True)
class HarnessConfig:
    """Geometry of one lockstep system — small enough to explore, big
    enough that the BCC actually evicts and the storm breaker fires."""

    phys_bytes: int = 4 * 2**20  # 1024 frames
    devices: int = 2
    bcc_entries: int = 4
    bcc_pages_per_entry: int = 4
    storm_threshold: int = 3
    #: ``False`` deliberately breaks the *monitor* (stale replays pass the
    #: abstract model) so the checkers can prove they detect divergence.
    monitor_epoch_fence: bool = True

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HarnessConfig":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)  # type: ignore[arg-type]


class LockstepHarness:
    """One real system and one abstract monitor, driven in lockstep."""

    def __init__(self, config: Optional[HarnessConfig] = None) -> None:
        cfg = config or HarnessConfig()
        self.config = cfg
        self.phys = PhysicalMemory(cfg.phys_bytes)
        self.kernel = Kernel(
            self.phys,
            bcc_config=BCCConfig(cfg.bcc_entries, cfg.bcc_pages_per_entry),
            violation_policy=ViolationPolicy.QUARANTINE,
        )
        # Manual-release quarantine + storm circuit breaker (PR 4).
        self.kernel.quarantine_backoff_ticks = 0
        self.kernel.violation_storm_threshold = cfg.storm_threshold

        self.victim = self.kernel.create_process("victim")
        # The secret oracle: one page no device is ever granted.
        self.holder = self.kernel.create_process("secret-holder")
        self.secret = SecretPage(self.kernel, self.holder)

        self.monitor = ReferenceMonitor(
            covered_pages=self.phys.num_frames,
            storm_threshold=cfg.storm_threshold,
            epoch_fence=cfg.monitor_epoch_fence,
        )

        # Lifecycle event tallies from the machine's event stream,
        # cross-checked against the monitor's transition counters.
        self.events: Dict[str, int] = {
            "quarantine": 0,
            "storm-kill": 0,
            "readmit": 0,
            "reset": 0,
        }
        self.kernel.events.subscribe("lifecycle", self._record_lifecycle)

        # Every device's border decisions, from the same stream; cleared
        # before each access op and checked against the op's outcome.
        self._observed: List[Tuple[str, int, bool, object]] = []
        self.kernel.events.subscribe("decision", self._record_decision)

        self.dev_ids: List[str] = [f"dev{i}" for i in range(cfg.devices)]
        self.accels: Dict[str, AcceleratorBase] = {}
        for dev_id in self.dev_ids:
            accel = AcceleratorBase(dev_id)
            self.accels[dev_id] = accel
            sandbox = self.kernel.attach_accelerator(self.victim, accel)
            assert sandbox is not None
            self.monitor.attach(dev_id)

        #: mmap'd victim areas, as start VPNs, in creation order. Ops
        #: reference areas by (pre-resolved) index into this list, which
        #: evolves deterministically with the trace — so traces replay.
        self.areas: List[int] = []
        self.trace: List[Dict[str, object]] = []

    def close(self) -> None:
        """Clear the machine's event stream, as ``System.close()`` does.

        The stream holds the kernel's violation policy and this
        harness's own subscribers, so until it is cleared a finished
        harness, with its kernel, sandboxes and physical memory, waits
        for the cyclic GC. A closed harness observes nothing more.
        """
        self.kernel.events.clear()

    # -- observation plumbing ---------------------------------------------

    def _record_lifecycle(self, event: str, accel_id: str, info: Dict[str, object]) -> None:
        self.events[event] = self.events.get(event, 0) + 1

    def _record_decision(
        self, accel_id: str, paddr: int, write: bool, decision: object
    ) -> None:
        self._observed.append((accel_id, paddr, write, decision))

    # -- helpers ------------------------------------------------------------

    def _fail(self, message: str, op: Optional[Dict[str, object]] = None) -> None:
        detail = f" during {op!r}" if op else ""
        raise LockstepViolation(
            f"{message}{detail}\n  monitor: {self.monitor!r}\n  trace: {self.trace!r}"
        )

    def _dev(self, op: Dict[str, object]) -> str:
        return self.dev_ids[int(op["dev"]) % len(self.dev_ids)]

    def _lifecycle(self, dev_id: str) -> Lifecycle:
        return self.monitor.device(dev_id).lifecycle

    def _require(self, condition: bool, why: str) -> None:
        if not condition:
            raise OpRejected(why)

    def _area(self, op: Dict[str, object]) -> int:
        self._require(bool(self.areas), "no mapped areas")
        return self.areas[int(op["area"]) % len(self.areas)]

    def _total_checks(self) -> int:
        total = 0
        for dev_id in self.dev_ids:
            sandbox = self.kernel.sandboxes.sandbox_for(dev_id)
            if sandbox is not None:
                total += sandbox.checks
        return total

    # -- the op interpreter --------------------------------------------------

    def apply(self, op: Dict[str, object]) -> None:
        """Execute one op against both models; raises LockstepViolation on
        divergence, OpRejected when the op's gate fails."""
        name = str(op["op"])
        handler = getattr(self, "_op_" + name.replace("-", "_"), None)
        if handler is None:
            raise OpRejected(f"unknown op {name!r}")
        self.trace.append(dict(op))
        try:
            handler(op)
        except OpRejected:
            self.trace.pop()  # rejected ops leave no mark on either model
            raise

    # OS memory-management ops (the victim's CPU side) ----------------------

    def _op_mmap(self, op: Dict[str, object]) -> None:
        self._require(self.victim.alive, "victim is dead")
        perms = Perm.RW if op.get("writable", True) else Perm.R
        try:
            vaddr = self.kernel.mmap(self.victim, int(op["pages"]), perms)
        except MemoryError_ as exc:
            raise OpRejected(str(exc))
        self.areas.append(vaddr >> PAGE_SHIFT)
        # Mapping grants devices nothing until a translation completes.

    def _op_munmap(self, op: Dict[str, object]) -> None:
        self._require(self.victim.alive, "victim is dead")
        start_vpn = self._area(op)
        self.areas.remove(start_vpn)
        self.kernel.munmap(self.victim, start_vpn << PAGE_SHIFT)
        # §3.2.4: unmapping revokes from every accelerator running the
        # address space (full-table downgrade in the default config).
        self.monitor.downgrade_attached()

    def _op_mprotect(self, op: Dict[str, object]) -> None:
        self._require(self.victim.alive, "victim is dead")
        start_vpn = self._area(op)
        area = self.victim.areas[start_vpn]
        old = area.perms
        new = Perm.RW if op.get("writable", True) else Perm.R
        self.kernel.mprotect(
            self.victim, start_vpn << PAGE_SHIFT, area.num_pages, new
        )
        if old.writable and not new.writable:
            # Losing W is a downgrade and fans out; gaining perms is not.
            self.monitor.downgrade_attached()

    def _op_context_switch(self, op: Dict[str, object]) -> None:
        self._require(self.victim.alive, "victim is dead")
        self.kernel.downgrade_process(self.victim)
        self.monitor.downgrade_attached()

    def _op_cpu_fallback(self, op: Dict[str, object]) -> None:
        """PR 4's degraded mode: the work runs on the CPU. Data must move
        and the border must see *zero* traffic."""
        self._require(self.victim.alive, "victim is dead")
        start_vpn = self._area(op)
        vaddr = start_vpn << PAGE_SHIFT
        before = self._total_checks()
        self.kernel.proc_write(self.victim, vaddr, MARKER)
        data = self.kernel.proc_read(self.victim, vaddr, len(MARKER))
        if data != MARKER:
            self._fail("CPU fallback round-trip corrupted data", op)
        if self._total_checks() != before:
            self._fail("CPU fallback traffic crossed the border", op)

    # device lifecycle ops --------------------------------------------------

    def _op_attach(self, op: Dict[str, object]) -> None:
        dev_id = self._dev(op)
        self._require(self.victim.alive, "victim is dead")
        self._require(
            self._lifecycle(dev_id) is Lifecycle.DETACHED, "device not detached"
        )
        self.kernel.attach_accelerator(self.victim, self.accels[dev_id])
        self.monitor.attach(dev_id)

    def _op_detach(self, op: Dict[str, object]) -> None:
        dev_id = self._dev(op)
        self._require(self.victim.alive, "victim is dead")
        self._require(
            self._lifecycle(dev_id) is Lifecycle.ATTACHED, "device not attached"
        )
        self.kernel.detach_accelerator(self.victim, self.accels[dev_id])
        self.monitor.detach(dev_id)

    def _op_reset(self, op: Dict[str, object]) -> None:
        """Epoch-fenced reset (PR 4): lifts any quarantine — even the
        permanent storm ban — and stales all in-flight replays."""
        dev_id = self._dev(op)
        self._require(
            self._lifecycle(dev_id) is not Lifecycle.DETACHED, "device detached"
        )
        self.kernel.reset_accelerator(dev_id)
        self.monitor.reset(dev_id)

    def _op_readmit(self, op: Dict[str, object]) -> None:
        """Manual quarantine release. Gated to non-permanent quarantine:
        a storm-banned device only returns through a full reset."""
        dev_id = self._dev(op)
        self._require(
            self._lifecycle(dev_id) is Lifecycle.QUARANTINED,
            "device not in releasable quarantine",
        )
        self.kernel.release_quarantine(dev_id)
        self.monitor.readmit(dev_id)

    def _op_shootdown(self, op: Dict[str, object]) -> None:
        """TLB shootdown aimed at one device: permission-neutral."""
        dev_id = self._dev(op)
        self._require(
            self._lifecycle(dev_id) is not Lifecycle.DETACHED, "device detached"
        )
        self.accels[dev_id].shootdown(self.victim.asid, None)

    # translation ops (Fig. 3b) ---------------------------------------------

    def _translate_page(self, dev_id: str, vpn: int) -> None:
        translation = self.victim.page_table.translate_vpn(vpn)
        self._require(translation is not None, f"vpn {vpn:#x} not mapped")
        assert translation is not None
        ppn = translation.ppn + (vpn - translation.vpn)
        sandbox = self.kernel.sandboxes.sandbox_for(dev_id)
        assert sandbox is not None
        sandbox.insert_translation(ppn, translation.perms)
        self.monitor.grant(dev_id, ppn, translation.perms)

    def _op_translate(self, op: Dict[str, object]) -> None:
        dev_id = self._dev(op)
        self._require(self.victim.alive, "victim is dead")
        self._require(
            self._lifecycle(dev_id) is Lifecycle.ATTACHED, "device not attached"
        )
        start_vpn = self._area(op)
        area = self.victim.areas[start_vpn]
        self._translate_page(dev_id, start_vpn + int(op["page"]) % area.num_pages)

    def _op_retry(self, op: Dict[str, object]) -> None:
        """Kernel retry after recovery: the relaunched kernel re-touches
        its whole working set, re-earning permissions page by page."""
        dev_id = self._dev(op)
        self._require(self.victim.alive, "victim is dead")
        self._require(
            self._lifecycle(dev_id) is Lifecycle.ATTACHED, "device not attached"
        )
        start_vpn = self._area(op)
        area = self.victim.areas[start_vpn]
        for offset in range(area.num_pages):
            self._translate_page(dev_id, start_vpn + offset)

    # the border crossing itself (Fig. 3c) ----------------------------------

    def _op_access(self, op: Dict[str, object]) -> None:
        """One device-originated physical access, possibly rogue, possibly
        epoch-stale. This is where every security property is enforced and
        therefore where the lockstep comparison has the most teeth."""
        dev_id = self._dev(op)
        self._require(
            self._lifecycle(dev_id) is not Lifecycle.DETACHED, "device detached"
        )
        ppn = int(op["ppn"])
        write = bool(op["write"])
        stale = int(op.get("stale", 0))
        accel = self.accels[dev_id]
        sandbox = self.kernel.sandboxes.sandbox_for(dev_id)
        assert sandbox is not None and sandbox.active

        # A replay from before `stale` epoch advances. 0 = current traffic.
        epoch = max(0, accel.epoch - stale)
        mon_allowed, mon_reason = self.monitor.check(dev_id, ppn, write, epoch)

        self._observed.clear()
        admitted = sandbox.admit_epoch(epoch)
        if admitted:
            decision = sandbox.check(ppn << PAGE_SHIFT, write)
            real_allowed = decision.allowed
        else:
            real_allowed = False

        # (a) the real stack allowed the access iff the monitor allows it.
        if real_allowed != mon_allowed:
            self._fail(
                f"decision divergence on {dev_id} ppn={ppn:#x} "
                f"write={write} epoch={epoch}: real "
                f"{'allowed' if real_allowed else 'denied'}, monitor "
                f"{'allowed' if mon_allowed else 'denied'} ({mon_reason})",
                op,
            )

        # (c) stale-epoch traffic is always dropped before any check.
        if not admitted:
            if stale == 0:
                self._fail("current-epoch traffic rejected at the fence", op)
            if self._observed:
                self._fail("stale traffic reached the permission check", op)
        else:
            # The decision stream saw exactly this check.
            if len(self._observed) != 1:
                self._fail(
                    f"expected one observed decision, saw {len(self._observed)}",
                    op,
                )
            seen_dev, seen_paddr, seen_write, seen_decision = self._observed[0]
            if (
                seen_dev != dev_id
                or seen_paddr != ppn << PAGE_SHIFT
                or seen_write is not write
                or seen_decision.allowed is not real_allowed  # type: ignore[attr-defined]
            ):
                self._fail("decision stream disagrees with check outcome", op)

        # (b) no confidentiality/integrity escape, ever: the secret frame
        # is never granted, so an allowed access to it is an escape even
        # if both models agreed (a shared-bug backstop).
        if real_allowed and ppn == self.secret.ppn:
            (failure,) = escape_failures(int(not write), int(write), True, dev_id)
            self._fail(failure, op)

        if real_allowed:
            # Commit real data so escapes are physically visible.
            paddr = ppn << PAGE_SHIFT
            if write:
                self.phys.write(paddr, MARKER)
            else:
                self.phys.read(paddr, len(MARKER))
        elif admitted:
            # A denied-but-admitted access is a violation: the kernel's
            # QUARANTINE policy already fired inside check(); mirror it.
            if mon_reason != REASON_STALE:
                self.monitor.record_violation(dev_id)

    # -- global state agreement ---------------------------------------------

    def check_invariants(self) -> None:
        """Cross-check all visible state: sandbox vs monitor per device,
        lifecycle tallies, and the secret oracle. Called after every step
        by the Hypothesis machine and the small-model checker."""
        for dev_id in self.dev_ids:
            st = self.monitor.device(dev_id)
            accel = self.accels[dev_id]
            sandbox = self.kernel.sandboxes.sandbox_for(dev_id)
            assert sandbox is not None
            if st.lifecycle is Lifecycle.DETACHED:
                if sandbox.active:
                    self._fail(f"{dev_id}: sandbox active while detached")
                if st.perms:
                    self._fail(f"{dev_id}: detached device holds grants")
            else:
                if not sandbox.active:
                    self._fail(f"{dev_id}: sandbox inactive while attached")
                if not (sandbox.epoch == accel.epoch == st.epoch):
                    self._fail(
                        f"{dev_id}: epoch skew sandbox={sandbox.epoch} "
                        f"device={accel.epoch} monitor={st.epoch}"
                    )
                assert sandbox.table is not None
                real_perms = dict(sandbox.table.populated())
                if real_perms != st.perms:
                    self._fail(
                        f"{dev_id}: Protection Table {real_perms!r} != "
                        f"monitor grants {st.perms!r}"
                    )
                if sandbox.bcc is not None:
                    # The BCC must never be *more* permissive than the
                    # table; with write-through + refetch it is equal.
                    for ppn, cached in sandbox.bcc.cached_permissions():
                        if cached != sandbox.table.get(ppn):
                            self._fail(
                                f"{dev_id}: BCC caches {cached!r} for "
                                f"ppn {ppn:#x}, table holds "
                                f"{sandbox.table.get(ppn)!r}"
                            )
                if self.secret.ppn in st.perms or sandbox.table.get(
                    self.secret.ppn
                ) != Perm.NONE:
                    self._fail(f"{dev_id}: granted the secret frame")
            if self.kernel.is_quarantined(dev_id) != self.monitor.is_quarantined(
                dev_id
            ):
                self._fail(
                    f"{dev_id}: quarantine disagreement "
                    f"(kernel={self.kernel.is_quarantined(dev_id)})"
                )
            if accel.enabled != self.monitor.is_enabled(dev_id):
                self._fail(
                    f"{dev_id}: enable disagreement (device={accel.enabled})"
                )

        if self.victim.alive != self.monitor.victim_alive:
            self._fail(
                f"victim liveness disagreement (real={self.victim.alive})"
            )

        # The secret oracle: the pattern must be byte-identical, forever.
        if not self.secret.intact():
            (failure,) = escape_failures(0, 0, False, "device")
            self._fail(failure)

        # (d) lifecycle event stream agrees with the monitor's transitions.
        tallies = {
            "quarantine": self.monitor.quarantines,
            "storm-kill": self.monitor.storm_kills,
            "readmit": self.monitor.readmissions,
            "reset": self.monitor.resets,
        }
        for event, expected in tallies.items():
            if self.events.get(event, 0) != expected:
                self._fail(
                    f"lifecycle tally skew for {event!r}: kernel emitted "
                    f"{self.events.get(event, 0)}, monitor counted {expected}"
                )
