"""The abstract reference monitor.

This is the *specification* half of the lockstep checker: a deliberately
tiny model of what Border Control is supposed to enforce, written with no
reference to tables, caches, engines, or timing. Per accelerator it keeps

* a map ``ppn -> Perm`` of permissions the device has legitimately earned
  through ATS translations and not yet lost to a downgrade;
* the current attach **epoch** (advanced on every attach and every
  epoch-fenced reset — traffic stamped older is a stale replay);
* a **lifecycle** state: ``detached``, ``attached``, ``quarantined``, or
  ``killed`` (the violation-storm circuit breaker's permanent ban).

The monitor answers one question — :meth:`check`: *may this device touch
this physical page right now?* — and mirrors the kernel's QUARANTINE
violation policy (PR 4) as pure state transitions. The real
``Kernel``/``BorderControl``/``BCC`` stack is then driven in lockstep by
:mod:`repro.verify.harness`; any divergence between the two is, by
construction, either an unauthorized access the hardware allowed
(confidentiality/integrity escape) or a legitimate access it lost
(availability bug).

``epoch_fence=False`` deliberately breaks the monitor (stale replays are
admitted): the small-model checker's self-test seeds this broken
specification and must find the known counterexample, proving the
checker has teeth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.permissions import Perm

__all__ = ["Lifecycle", "DeviceState", "ReferenceMonitor"]


class Lifecycle(enum.Enum):
    """Where an accelerator is in the attach/sanction lifecycle."""

    DETACHED = "detached"
    ATTACHED = "attached"
    QUARANTINED = "quarantined"
    KILLED = "killed"  # permanent (violation-storm) quarantine


#: ``check`` verdict reasons. ``stale-epoch`` is *not* a violation (the
#: border drops the request before any permission lookup); the other two
#: denials are violations and trigger the sanction mirror.
REASON_GRANTED = "granted"
REASON_STALE = "stale-epoch"
REASON_OOB = "out-of-bounds"
REASON_NO_PERM = "no-permission"


@dataclass
class DeviceState:
    """The monitor's entire knowledge of one accelerator."""

    lifecycle: Lifecycle = Lifecycle.DETACHED
    epoch: int = 0
    strikes: int = 0
    perms: Dict[int, Perm] = field(default_factory=dict)


class ReferenceMonitor:
    """Abstract pages × permissions × epochs × lifecycle security model."""

    def __init__(
        self,
        covered_pages: int,
        storm_threshold: int = 0,
        epoch_fence: bool = True,
    ) -> None:
        self.covered_pages = covered_pages
        self.storm_threshold = storm_threshold
        # False models a broken specification (stale replays admitted);
        # used only to prove the checkers can detect divergence.
        self.epoch_fence = epoch_fence
        self.devices: Dict[str, DeviceState] = {}
        self.victim_alive = True
        # Transition tallies, cross-checked by the harness against the
        # ``lifecycle`` events on the kernel's event stream.
        self.quarantines = 0
        self.storm_kills = 0
        self.readmissions = 0
        self.resets = 0

    def device(self, dev: str) -> DeviceState:
        return self.devices.setdefault(dev, DeviceState())

    # -- lifecycle transitions (mirroring kernel operations) ---------------

    def attach(self, dev: str) -> None:
        """Fig. 3a: process starts on the device; every attach opens a new
        epoch, and the device owns no permissions until it earns them."""
        st = self.device(dev)
        st.lifecycle = Lifecycle.ATTACHED
        st.epoch += 1
        st.perms.clear()

    def detach(self, dev: str) -> None:
        """Fig. 3e: process completes; the table is zeroed and freed."""
        st = self.device(dev)
        st.lifecycle = Lifecycle.DETACHED
        st.perms.clear()

    def grant(self, dev: str, ppn: int, perms: Perm, page_count: int = 1) -> None:
        """Fig. 3b: a completed ATS translation ORs permissions in.

        Grants are monotonic unions until the next downgrade; pages
        outside physical memory grant nothing (the table cannot cover
        them), mirroring ``BorderControl.insert_translation``.
        """
        st = self.device(dev)
        for offset in range(page_count):
            page = ppn + offset
            if 0 <= page < self.covered_pages and perms != Perm.NONE:
                st.perms[page] = st.perms.get(page, Perm.NONE) | perms

    def downgrade_all(self, dev: str) -> None:
        """Fig. 3d for one device: the whole table is zeroed."""
        self.device(dev).perms.clear()

    def downgrade_page(self, dev: str, ppn: int) -> None:
        """Selective §3.2.4 revocation of a single page."""
        self.device(dev).perms.pop(ppn, None)

    def downgrade_attached(self) -> None:
        """An OS downgrade (munmap / mprotect-loss / context switch) fans
        out to every device currently running the address space — i.e.
        every non-detached device in this single-victim model."""
        for st in self.devices.values():
            if st.lifecycle is not Lifecycle.DETACHED:
                st.perms.clear()

    def reset(self, dev: str) -> None:
        """Epoch-fenced reset: the epoch advances *first* (staling every
        in-flight replay), the sandbox is downgraded, and any quarantine
        — even a permanent one — is lifted. Strikes survive: a device
        that violates again after a reset escalates."""
        st = self.device(dev)
        st.epoch += 1
        st.perms.clear()
        st.lifecycle = Lifecycle.ATTACHED
        self.resets += 1

    def readmit(self, dev: str) -> None:
        """Quarantine release (the ``enable()`` path): the device may
        accept work again but owns nothing — its permissions were revoked
        at quarantine time and must be re-earned through the ATS."""
        st = self.device(dev)
        st.lifecycle = Lifecycle.ATTACHED
        self.readmissions += 1

    def record_violation(self, dev: str) -> None:
        """Mirror of the kernel's QUARANTINE violation policy (PR 4).

        A violation from an already-quarantined device stacks no new
        sanction; otherwise the device takes a strike, loses all
        permissions, and is quarantined — permanently (and the victim
        process killed) once strikes reach the storm threshold.
        """
        st = self.device(dev)
        if st.lifecycle in (Lifecycle.QUARANTINED, Lifecycle.KILLED):
            return
        st.strikes += 1
        st.perms.clear()
        self.quarantines += 1
        if self.storm_threshold > 0 and st.strikes >= self.storm_threshold:
            st.lifecycle = Lifecycle.KILLED
            # One kill per victim process, not per banned device: a second
            # device storming after the victim died bans without killing.
            if self.victim_alive:
                self.storm_kills += 1
                self.victim_alive = False
        else:
            st.lifecycle = Lifecycle.QUARANTINED

    # -- the one question that matters ------------------------------------

    def check(
        self, dev: str, ppn: int, write: bool, epoch: Optional[int] = None
    ) -> Tuple[bool, str]:
        """May ``dev`` access physical page ``ppn`` right now?

        Returns ``(allowed, reason)``. The paper's two invariants fall
        out directly: a read is allowed only under an unrevoked R grant
        (confidentiality), a write only under an unrevoked W grant
        (integrity), and stale-epoch traffic is dropped before either.
        """
        st = self.device(dev)
        if (
            epoch is not None
            and self.epoch_fence
            and epoch < st.epoch
        ):
            return False, REASON_STALE
        if not (0 <= ppn < self.covered_pages):
            return False, REASON_OOB
        if st.perms.get(ppn, Perm.NONE).allows(write):
            return True, REASON_GRANTED
        return False, REASON_NO_PERM

    # -- derived predicates (compared against real kernel state) -----------

    def is_quarantined(self, dev: str) -> bool:
        return self.device(dev).lifecycle in (
            Lifecycle.QUARANTINED,
            Lifecycle.KILLED,
        )

    def is_enabled(self, dev: str) -> bool:
        """disable() fires at quarantine, enable() at readmit/reset; a
        detached device was never disabled."""
        return not self.is_quarantined(dev)

    def granted_pages(self, dev: str):
        return sorted(self.device(dev).perms)

    def __repr__(self) -> str:  # pragma: no cover
        parts = ", ".join(
            f"{dev}:{st.lifecycle.value}@e{st.epoch}({len(st.perms)}p)"
            for dev, st in sorted(self.devices.items())
        )
        return f"ReferenceMonitor({parts}, victim_alive={self.victim_alive})"
