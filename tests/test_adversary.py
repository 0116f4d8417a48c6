"""The adversary harness (:mod:`repro.adversary`) and its consumers.

With a border that allows everything, every consumer must notice: each
cell of the chaos and recovery CI smoke grids reports an escape, the
lockstep harness rejects an access to the secret frame, and Table 1's
Border Control row stops holding. The watchdog's give-up path is
unit-tested here because no campaign cell reaches it.
"""

from __future__ import annotations

import pytest

from repro.adversary import ProgressWatchdog
from repro.chaos import chaos_grid, run_chaos_single
from repro.core.border_control import BorderControl, _decision
from repro.core.permissions import Perm
from repro.errors import AcceleratorHangError
from repro.experiments.tables import verify_table1
from repro.recovery import recovery_grid, run_recovery_single
from repro.verify.harness import LockstepHarness, LockstepViolation


@pytest.fixture
def allow_all(monkeypatch):
    monkeypatch.setattr(
        BorderControl, "check", lambda self, paddr, write: _decision(True, Perm.RW, True)
    )


def _escaped(failures):
    return any(f.startswith(("confidentiality:", "integrity:")) for f in failures)


def test_every_smoke_cell_sees_a_border_that_allows_everything(allow_all):
    missed = []
    for cell in chaos_grid(seed=7, quick=True):
        if not _escaped(run_chaos_single(**cell).invariant_failures()):
            missed.append(("chaos", cell["workload"], cell["kinds"]))
    for cell in recovery_grid(seed=11, quick=True):
        if not _escaped(run_recovery_single(**cell).invariant_failures()):
            missed.append(("recovery", cell["workload"], cell["scenario"]))
    assert missed == []


@pytest.mark.parametrize("write", [False, True])
def test_lockstep_harness_rejects_an_allowed_secret_access(allow_all, write):
    harness = LockstepHarness()
    with pytest.raises(LockstepViolation):
        harness.apply(
            {"op": "access", "dev": 0, "ppn": harness.secret.ppn, "write": write}
        )


def test_table1_border_control_row_fails_when_the_border_allows_everything(
    allow_all,
):
    assert verify_table1()["Border Control"] is False


def test_watchdog_gives_up_after_max_stalled_fires():
    dog = ProgressWatchdog("gpu0", max_stalled_fires=3)
    assert not dog.fired(5)  # the first look at progress is not a fire
    for _ in range(2):
        assert dog.fired(5)
        dog.recovered(False)
    assert dog.fired(5)
    with pytest.raises(AcceleratorHangError) as excinfo:
        dog.recovered(False)
    assert excinfo.value.accel_id == "gpu0"
    assert excinfo.value.watchdog_fires == 3


def test_watchdog_progress_and_acting_recovery_reset_the_stall_count():
    dog = ProgressWatchdog("gpu0", max_stalled_fires=2)
    dog.fired(1)
    assert dog.fired(1)
    dog.recovered(False)
    assert not dog.fired(2)  # progress
    assert dog.fired(2)
    dog.recovered(False)
    assert dog.fired(None)  # no progress measure: every wake-up fires
    dog.recovered(True)
    assert dog.fired(2)
    dog.recovered(False)
    assert dog.fires == 4
