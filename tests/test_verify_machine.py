"""The lockstep Hypothesis machine (repro.verify.machine).

Replaces the retired ``test_stateful_model.py``: where the old machine
checked one engine against a permissions dict, :class:`LockstepMachine`
drives the *whole* stack — kernel, sandboxes, BCC, devices, quarantine,
epoch fence, storm breaker — against the abstract reference monitor and
covers the full PR 4 recovery surface (violation injection, epoch-fenced
reset, retry, CPU fallback, storm quarantine, readmission).

The teeth tests are the important half: a deliberately broken real stack
(epoch fence bypassed) and a deliberately broken specification must BOTH
be caught, otherwise a green machine run means nothing.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

from repro.core.border_control import BorderControl
from repro.verify.harness import (
    HarnessConfig,
    LockstepHarness,
    LockstepViolation,
)
from repro.verify.machine import LAST_TRACE, LockstepMachine

# The canonical random-interleaving search, at the active profile.
TestLockstepMachine = LockstepMachine.TestCase


def test_machine_catches_epoch_fence_bypass(monkeypatch):
    """Mutation teeth: disable the real stack's epoch fence; the machine
    must find a counterexample and leave the shrunk trace behind."""
    monkeypatch.setattr(BorderControl, "admit_epoch", lambda self, epoch: True)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(LockstepMachine)
    # Hypothesis's final reproduction pass leaves the minimal trace in
    # LAST_TRACE — it must contain the stale access that slipped through.
    assert LAST_TRACE, "no shrunk counterexample trace captured"
    assert any(
        op["op"] == "access" and op.get("stale", 0) > 0 for op in LAST_TRACE
    )


def test_machine_catches_broken_monitor():
    """Specification teeth: a monitor without the epoch fence diverges
    from the (correct) real stack.

    Derandomized, without the example database and on a fixed budget,
    so every run searches the same examples, and those reach a grant →
    reset → stale access whatever the active profile or a local
    database holds (a random search missed it about one run in eight).
    """

    class BrokenMonitorMachine(LockstepMachine):
        config = HarnessConfig(monitor_epoch_fence=False)

    fixed = settings(
        settings.default,
        derandomize=True,
        database=None,
        max_examples=300,
        stateful_step_count=30,
    )
    with pytest.raises(AssertionError):
        run_state_machine_as_test(BrokenMonitorMachine, settings=fixed)


def test_harness_divergence_is_deterministic():
    """The known broken-monitor counterexample, replayed by hand:
    grant -> reset -> stale access diverges exactly at the access."""
    h = LockstepHarness(HarnessConfig(monitor_epoch_fence=False))
    h.apply({"op": "mmap", "pages": 1, "writable": True})
    h.apply({"op": "translate", "dev": 0, "area": 0, "page": 0})
    ppn = h.monitor.granted_pages("dev0")[0]
    h.check_invariants()
    with pytest.raises(LockstepViolation, match="divergence"):
        # One epoch stale: the border drops it, the fenceless monitor
        # still sees the grant and allows it.
        h.apply({"op": "access", "dev": 0, "ppn": ppn, "write": True, "stale": 1})


def test_machine_trace_is_replayable():
    """Any trace the machine leaves behind replays cleanly on a fresh
    harness (the property the counterexample bundles depend on)."""
    h = LockstepHarness()
    ops = [
        {"op": "mmap", "pages": 2, "writable": True},
        {"op": "translate", "dev": 0, "area": 0, "page": 0},
        {"op": "retry", "dev": 1, "area": 0},
        {"op": "context-switch"},
        {"op": "cpu-fallback", "area": 0},
        {"op": "detach", "dev": 1},
        {"op": "attach", "dev": 1},
    ]
    for op in ops:
        h.apply(op)
        h.check_invariants()
    assert h.trace == ops

    replay = LockstepHarness()
    for op in h.trace:
        replay.apply(op)
        replay.check_invariants()
    assert replay.trace == ops


def test_closed_harness_leaves_nothing_to_the_cyclic_gc():
    """``close()`` clears the event stream that makes every harness a
    reference cycle, so with the cyclic GC off reference counting frees
    the whole machine as soon as the harness is dropped."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        h = LockstepHarness()
        for op in (
            {"op": "mmap", "pages": 2, "writable": True},
            {"op": "translate", "dev": 0, "area": 0, "page": 0},
            {"op": "access", "dev": 1, "ppn": h.secret.ppn, "write": False},
        ):
            h.apply(op)
            h.check_invariants()
        parts = {"harness": h, "kernel": h.kernel, "memory": h.phys}
        refs = {name: weakref.ref(obj) for name, obj in parts.items()}
        h.close()
        del h, parts
        assert [name for name, ref in refs.items() if ref() is not None] == []
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
