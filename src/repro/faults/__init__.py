"""Fault injection & resilience — chaos testing for the sandbox.

The paper's argument (§2.1, §3.2.3) is that Border Control contains
*arbitrary* accelerator misbehavior. This package makes that claim
testable under *hardware failure*, not just adversarial logic:

* :mod:`repro.faults.plan` — seeded, deterministic, serializable
  :class:`FaultPlan` / :class:`FaultSpec` descriptions of what fails,
  where, and how often;
* :mod:`repro.faults.port` — :class:`FaultyPort`, a
  :class:`~repro.mem.port.MemoryPort` interposer injecting drops, hangs,
  delays, bit flips, and duplicated writebacks at any point in the
  hierarchy;
* :mod:`repro.faults.accel` — :class:`HangingAccelerator`, a GPU that
  wedges mid-kernel and only drains again when the OS quarantines it.

The matching resilience plumbing lives with the components it hardens:
``Engine.deadline`` (:mod:`repro.sim.engine`), timeout+retry in
:class:`~repro.core.border_port.BorderControlPort` and the ATS,
``ViolationPolicy.QUARANTINE`` in :mod:`repro.osmodel.kernel`, the
stall watchdog and escape oracle in :mod:`repro.adversary`, and the
``run_chaos_campaign`` harness in :mod:`repro.chaos`.
"""

from repro.faults.accel import HangingAccelerator
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, derive_seed
from repro.faults.port import FaultyPort
from repro.faults.replay import RecordingPort, ReplayBuffer

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FaultyPort",
    "HangingAccelerator",
    "RecordingPort",
    "ReplayBuffer",
    "derive_seed",
]
