"""Hypothesis stateful model: random full-lifecycle interleavings.

:class:`LockstepMachine` drives one :class:`~repro.verify.harness.
LockstepHarness` with randomly interleaved OS, device, and rogue-device
operations — mmap/munmap/mprotect, attach/detach, legitimate ATS
translations, random physical probes (in- and out-of-bounds, current and
epoch-stale), context-switch downgrades, TLB shootdowns, epoch-fenced
resets, kernel-retry relaunches, CPU fallbacks, quarantine readmissions —
and checks the lockstep invariants after every step.

Every rule resolves its Hypothesis draws to a *concrete* op dict before
applying it, and appends it to the module-global :data:`LAST_TRACE`.
After a failing run, Hypothesis replays the shrunk counterexample once
more as its final reproduction pass, so ``LAST_TRACE`` ends up holding
exactly the minimal trace — which the ``verify`` CLI wraps into a
replayable ``poison-*.json`` bundle.

This module imports :mod:`hypothesis` and must only be imported where
the test extra is installed; everything else in :mod:`repro.verify` is
dependency-free.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.verify.harness import HarnessConfig, LockstepHarness
from repro.verify.monitor import Lifecycle

__all__ = ["LAST_TRACE", "LockstepMachine"]

#: The op trace of the most recent machine execution. Because Hypothesis
#: ends a failing test with one final replay of the shrunk example, this
#: holds the *minimal* counterexample after a failure — ready to bundle.
LAST_TRACE: List[Dict[str, object]] = []

#: Rogue probes reach past the end of physical memory by this many pages,
#: so out-of-bounds (bounds-register) violations are generated too.
_OOB_MARGIN = 64


class LockstepMachine(RuleBasedStateMachine):
    """Random interleavings over the lockstep harness."""

    #: Overridden by the teeth tests to run a deliberately broken config.
    config: Optional[HarnessConfig] = None

    @initialize()
    def setup(self) -> None:
        LAST_TRACE.clear()
        self.h = LockstepHarness(self.config or HarnessConfig())
        self.h.trace = LAST_TRACE  # shared so the final replay is captured

    def teardown(self) -> None:
        if hasattr(self, "h"):
            self.h.close()

    # -- helpers -------------------------------------------------------------

    def _apply(self, op: Dict[str, object]) -> None:
        self.h.apply(op)

    def _devs_in(self, *states: Lifecycle) -> List[int]:
        return [
            i
            for i, dev_id in enumerate(self.h.dev_ids)
            if self.h.monitor.device(dev_id).lifecycle in states
        ]

    def _alive(self) -> bool:
        return hasattr(self, "h") and self.h.victim.alive

    def _has_areas(self) -> bool:
        return hasattr(self, "h") and bool(self.h.areas)

    # -- OS memory management -----------------------------------------------

    @precondition(lambda self: self._alive())
    @rule(pages=st.integers(1, 4), writable=st.booleans())
    def mmap(self, pages: int, writable: bool) -> None:
        self._apply({"op": "mmap", "pages": pages, "writable": writable})

    @precondition(lambda self: self._alive() and self._has_areas())
    @rule(area=st.integers(0, 63))
    def munmap(self, area: int) -> None:
        self._apply({"op": "munmap", "area": area % len(self.h.areas)})

    @precondition(lambda self: self._alive() and self._has_areas())
    @rule(area=st.integers(0, 63), writable=st.booleans())
    def mprotect(self, area: int, writable: bool) -> None:
        self._apply(
            {
                "op": "mprotect",
                "area": area % len(self.h.areas),
                "writable": writable,
            }
        )

    @precondition(lambda self: self._alive())
    @rule()
    def context_switch(self) -> None:
        self._apply({"op": "context-switch"})

    @precondition(lambda self: self._alive() and self._has_areas())
    @rule(area=st.integers(0, 63))
    def cpu_fallback(self, area: int) -> None:
        self._apply({"op": "cpu-fallback", "area": area % len(self.h.areas)})

    # -- translations (the legitimate path) -----------------------------------

    @precondition(
        lambda self: self._alive()
        and self._has_areas()
        and self._devs_in(Lifecycle.ATTACHED)
    )
    @rule(dev=st.integers(0, 63), area=st.integers(0, 63), page=st.integers(0, 63))
    def translate(self, dev: int, area: int, page: int) -> None:
        devs = self._devs_in(Lifecycle.ATTACHED)
        self._apply(
            {
                "op": "translate",
                "dev": devs[dev % len(devs)],
                "area": area % len(self.h.areas),
                "page": page,
            }
        )

    @precondition(
        lambda self: self._alive()
        and self._has_areas()
        and self._devs_in(Lifecycle.ATTACHED)
    )
    @rule(dev=st.integers(0, 63), area=st.integers(0, 63))
    def retry(self, dev: int, area: int) -> None:
        devs = self._devs_in(Lifecycle.ATTACHED)
        self._apply(
            {
                "op": "retry",
                "dev": devs[dev % len(devs)],
                "area": area % len(self.h.areas),
            }
        )

    # -- device accesses: legitimate, rogue, and stale -------------------------

    @precondition(
        lambda self: hasattr(self, "h")
        and self._devs_in(
            Lifecycle.ATTACHED, Lifecycle.QUARANTINED, Lifecycle.KILLED
        )
    )
    @rule(
        dev=st.integers(0, 63),
        ppn=st.integers(0, 63),
        write=st.booleans(),
        stale=st.integers(0, 2),
    )
    def probe_random(self, dev: int, ppn: int, write: bool, stale: int) -> None:
        """A device-chosen physical address: anywhere in (or past) memory."""
        devs = self._devs_in(
            Lifecycle.ATTACHED, Lifecycle.QUARANTINED, Lifecycle.KILLED
        )
        span = self.h.phys.num_frames + _OOB_MARGIN
        self._apply(
            {
                "op": "access",
                "dev": devs[dev % len(devs)],
                "ppn": ppn * span // 64,  # spread over the whole span
                "write": write,
                "stale": stale,
            }
        )

    @precondition(
        lambda self: hasattr(self, "h")
        and any(
            self.h.monitor.device(d).perms
            and self.h.monitor.device(d).lifecycle is Lifecycle.ATTACHED
            for d in self.h.dev_ids
        )
    )
    @rule(dev=st.integers(0, 63), page=st.integers(0, 63), write=st.booleans(),
          stale=st.integers(0, 2))
    def probe_granted(self, dev: int, page: int, write: bool, stale: int) -> None:
        """An access to a page the device has actually been granted — the
        common case that must keep working (availability)."""
        devs = [
            i
            for i, d in enumerate(self.h.dev_ids)
            if self.h.monitor.device(d).perms
            and self.h.monitor.device(d).lifecycle is Lifecycle.ATTACHED
        ]
        dev_idx = devs[dev % len(devs)]
        granted = self.h.monitor.granted_pages(self.h.dev_ids[dev_idx])
        self._apply(
            {
                "op": "access",
                "dev": dev_idx,
                "ppn": granted[page % len(granted)],
                "write": write,
                "stale": stale,
            }
        )

    @precondition(
        lambda self: hasattr(self, "h")
        and self._devs_in(
            Lifecycle.ATTACHED, Lifecycle.QUARANTINED, Lifecycle.KILLED
        )
    )
    @rule(dev=st.integers(0, 63), write=st.booleans(), stale=st.integers(0, 2))
    def probe_secret(self, dev: int, write: bool, stale: int) -> None:
        """A rogue probe aimed straight at the secret frame."""
        devs = self._devs_in(
            Lifecycle.ATTACHED, Lifecycle.QUARANTINED, Lifecycle.KILLED
        )
        self._apply(
            {
                "op": "access",
                "dev": devs[dev % len(devs)],
                "ppn": self.h.secret.ppn,
                "write": write,
                "stale": stale,
            }
        )

    # -- device lifecycle ------------------------------------------------------

    @precondition(
        lambda self: self._alive() and self._devs_in(Lifecycle.DETACHED)
    )
    @rule(dev=st.integers(0, 63))
    def attach(self, dev: int) -> None:
        devs = self._devs_in(Lifecycle.DETACHED)
        self._apply({"op": "attach", "dev": devs[dev % len(devs)]})

    @precondition(
        lambda self: self._alive() and self._devs_in(Lifecycle.ATTACHED)
    )
    @rule(dev=st.integers(0, 63))
    def detach(self, dev: int) -> None:
        devs = self._devs_in(Lifecycle.ATTACHED)
        self._apply({"op": "detach", "dev": devs[dev % len(devs)]})

    @precondition(
        lambda self: hasattr(self, "h")
        and self._devs_in(
            Lifecycle.ATTACHED, Lifecycle.QUARANTINED, Lifecycle.KILLED
        )
    )
    @rule(dev=st.integers(0, 63))
    def reset(self, dev: int) -> None:
        devs = self._devs_in(
            Lifecycle.ATTACHED, Lifecycle.QUARANTINED, Lifecycle.KILLED
        )
        self._apply({"op": "reset", "dev": devs[dev % len(devs)]})

    @precondition(
        lambda self: hasattr(self, "h") and self._devs_in(Lifecycle.QUARANTINED)
    )
    @rule(dev=st.integers(0, 63))
    def readmit(self, dev: int) -> None:
        devs = self._devs_in(Lifecycle.QUARANTINED)
        self._apply({"op": "readmit", "dev": devs[dev % len(devs)]})

    @precondition(
        lambda self: hasattr(self, "h")
        and self._devs_in(
            Lifecycle.ATTACHED, Lifecycle.QUARANTINED, Lifecycle.KILLED
        )
    )
    @rule(dev=st.integers(0, 63))
    def shootdown(self, dev: int) -> None:
        devs = self._devs_in(
            Lifecycle.ATTACHED, Lifecycle.QUARANTINED, Lifecycle.KILLED
        )
        self._apply({"op": "shootdown", "dev": devs[dev % len(devs)]})

    # -- the lockstep check after every single step ----------------------------

    @invariant()
    def lockstep(self) -> None:
        if hasattr(self, "h"):
            self.h.check_invariants()
