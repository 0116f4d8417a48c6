"""Regression tests pinned by the lockstep verifier's model.

The reference monitor encodes what readmission and reset *mean*: a
device that returns from quarantine owns nothing (empty Protection
Table, empty BCC) and — after a reset — lives in an advanced epoch that
stales every pre-quarantine request. These tests pin those semantics
directly on the kernel, so a regression fails here with a named cause
even before the lockstep machine finds the divergence. Also covers the
new observation hooks the verifier depends on.
"""

from __future__ import annotations

import pytest

from repro.accel.base import AcceleratorBase
from repro.core.bcc import BCCConfig
from repro.core.permissions import Perm
from repro.mem.address import PAGE_SHIFT
from repro.mem.phys_memory import PhysicalMemory
from repro.osmodel.kernel import Kernel, ViolationPolicy
from repro.recovery import run_recovery_single

from tests.util import small_config, tiny_spec

MEM = 16 * 2**20


@pytest.fixture
def quarantine_kernel():
    kernel = Kernel(
        PhysicalMemory(MEM),
        bcc_config=BCCConfig(num_entries=4, pages_per_entry=4),
        violation_policy=ViolationPolicy.QUARANTINE,
    )
    kernel.quarantine_backoff_ticks = 0  # manual release
    return kernel


def _granted_setup(kernel):
    """Victim attached to one device with one translated RW page.

    Returns (proc, accel, sandbox, ppn)."""
    proc = kernel.create_process("victim")
    accel = AcceleratorBase("gpu0")
    sandbox = kernel.attach_accelerator(proc, accel)
    vaddr = kernel.mmap(proc, 1, Perm.RW)
    translation = proc.page_table.translate(vaddr)
    sandbox.insert_translation(translation.ppn, translation.perms)
    assert sandbox.check(translation.ppn << PAGE_SHIFT, True).allowed
    return proc, accel, sandbox, translation.ppn


def _violate(sandbox):
    """One rogue probe at an ungranted page: denied, and under the
    QUARANTINE policy the kernel sanctions the device synchronously."""
    rogue_ppn = sandbox.phys.num_frames - 1
    assert not sandbox.check(rogue_ppn << PAGE_SHIFT, True).allowed


def test_readmitted_accelerator_starts_empty(quarantine_kernel):
    """release_quarantine re-enables the device but honors NO
    pre-quarantine permission: table zeroed, BCC empty, access denied."""
    kernel = quarantine_kernel
    proc, accel, sandbox, ppn = _granted_setup(kernel)

    _violate(sandbox)
    assert kernel.is_quarantined("gpu0")
    assert not accel.enabled

    kernel.release_quarantine("gpu0")
    assert not kernel.is_quarantined("gpu0")
    assert accel.enabled
    # The pre-quarantine grant is gone everywhere.
    assert dict(sandbox.table.populated()) == {}
    assert sandbox.bcc.occupancy == 0
    assert not sandbox.check(ppn << PAGE_SHIFT, True).allowed
    # ...and the grant is re-earnable through a fresh translation.
    kernel.release_quarantine("gpu0")  # the denial above re-quarantined
    sandbox.insert_translation(ppn, Perm.RW)
    assert sandbox.check(ppn << PAGE_SHIFT, True).allowed


def test_reset_advances_epoch_and_stales_prequarantine_traffic(quarantine_kernel):
    """reset_accelerator: the epoch advances before anything else, so
    requests stamped with the pre-quarantine epoch are rejected at the
    fence (not even permission-checked), and the BCC restarts cold."""
    kernel = quarantine_kernel
    proc, accel, sandbox, ppn = _granted_setup(kernel)
    old_epoch = accel.epoch

    _violate(sandbox)
    assert kernel.is_quarantined("gpu0")
    assert kernel.reset_accelerator("gpu0")
    assert not kernel.is_quarantined("gpu0")

    assert accel.epoch == sandbox.epoch == old_epoch + 1
    assert not sandbox.admit_epoch(old_epoch)  # stale replay: dropped
    assert sandbox.stale_epoch_rejections == 1
    assert sandbox.admit_epoch(accel.epoch)
    assert dict(sandbox.table.populated()) == {}
    assert sandbox.bcc.occupancy == 0
    # Post-reset, the working set is re-earned page by page.
    sandbox.insert_translation(ppn, Perm.RW)
    assert sandbox.check(ppn << PAGE_SHIFT, True).allowed


def test_storm_ban_survives_readmission_attempts(quarantine_kernel):
    """A permanently quarantined device stays quarantined through the
    timed-release path; only an explicit reset lifts the ban."""
    kernel = quarantine_kernel
    kernel.violation_storm_threshold = 2
    proc, accel, sandbox, ppn = _granted_setup(kernel)

    _violate(sandbox)
    kernel.release_quarantine("gpu0")
    _violate(sandbox)  # second strike: storm threshold reached
    assert kernel.is_quarantined("gpu0")
    assert not proc.alive  # storm kill
    # The scheduled-release path must not lift a permanent ban.
    kernel._release_quarantine("gpu0")
    assert kernel.is_quarantined("gpu0")
    assert kernel.reset_accelerator("gpu0")
    assert not kernel.is_quarantined("gpu0")


def test_lifecycle_hook_reports_transitions(quarantine_kernel):
    """The kernel's ``lifecycle`` events (used by the lockstep
    verifier) report each transition exactly once, in order."""
    kernel = quarantine_kernel
    kernel.violation_storm_threshold = 3
    events = []
    kernel.events.subscribe(
        "lifecycle",
        lambda event, accel_id, info: events.append((event, accel_id, dict(info))),
    )

    proc, accel, sandbox, ppn = _granted_setup(kernel)
    _violate(sandbox)
    assert events == [("quarantine", "gpu0", {"strikes": 1, "permanent": False})]

    kernel.release_quarantine("gpu0")
    assert events[-1] == ("readmit", "gpu0", {})

    kernel.reset_accelerator("gpu0")
    assert events[-1][0] == "reset"
    assert events[-1][2]["epoch"] == sandbox.epoch

    _violate(sandbox)
    _violate(sandbox)  # still quarantined: no second sanction, no event
    assert [e[0] for e in events].count("quarantine") == 2
    kernel.release_quarantine("gpu0")
    _violate(sandbox)  # third strike: permanent + storm kill
    assert ("storm-kill", "gpu0", {"pid": proc.pid}) in events
    assert events[[e[0] for e in events].index("storm-kill") - 1] == (
        "quarantine",
        "gpu0",
        {"strikes": 3, "permanent": True},
    )


def test_decision_hook_sees_every_check(quarantine_kernel):
    """A ``decision`` event fires for allowed, denied, and out-of-bounds
    checks alike, with the device and the decision the caller saw."""
    kernel = quarantine_kernel
    proc, accel, sandbox, ppn = _granted_setup(kernel)
    seen = []
    kernel.events.subscribe(
        "decision",
        lambda accel_id, paddr, write, decision: seen.append(
            (accel_id, paddr >> PAGE_SHIFT, write, decision.allowed)
        ),
    )

    assert sandbox.check(ppn << PAGE_SHIFT, True).allowed
    oob = sandbox.phys.num_frames + 7
    assert not sandbox.check(oob << PAGE_SHIFT, False).allowed
    assert seen == [("gpu0", ppn, True, True), ("gpu0", oob, False, False)]


def test_recovery_observer_reports_stage_stream(tmp_path, monkeypatch):
    """A recovery run's ``recovery`` events narrate the PR 4 pipeline:
    every recovery attempt reports reset -> relaunch, and the run ends
    with exactly one outcome stage matching the result."""
    from repro import recovery
    from repro.experiments import common

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common.clear_cache()
    stages = []

    class ObservedSystem(recovery.System):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.events.subscribe(
                "recovery", lambda stage, info: stages.append((stage, dict(info)))
            )

    monkeypatch.setattr(recovery, "System", ObservedSystem)
    run = run_recovery_single(
        "tiny",
        "reset-replay",
        seed=5,
        workload_spec=tiny_spec(),
        config=small_config(),
    )
    common.clear_cache()

    names = [stage for stage, _info in stages]
    assert "reset" in names and "relaunch" in names
    assert names.index("reset") < names.index("relaunch")
    assert names.count("outcome") == 1
    outcome_info = [info for stage, info in stages if stage == "outcome"][0]
    assert outcome_info["outcome"] == run.outcome
    reset_info = [info for stage, info in stages if stage == "reset"][0]
    assert reset_info["attempt"] == 1
    assert reset_info["stale_epoch"] >= 0
