"""``repro.fleet`` — a fault-tolerant distributed worker fleet.

A single host's campaign workers are crash-contained; this package
extends :mod:`repro.supervisor` + :mod:`repro.journal` across hosts
(ROADMAP item 3): an asyncio coordinator fans campaign cells (sweep,
chaos or recovery) out to remote workers over length-prefixed JSON
frames (the :func:`repro.service.wire.encode_frame` framing), and the
whole stack is built so that *node failure is the common case*:

* **Leases, not RPCs** — every cell is a lease with a deadline. A
  worker that dies (SIGKILL, OOM, unplugged) or vanishes behind a
  partition stops heartbeating; its leases expire and the cells are
  reassigned. Delivery is at-least-once; the content-hashed result
  cache plus the journal's last-wins idempotent replay make it
  effectively exactly-once (duplicate results are ignored, duplicate
  appends are harmless, and re-execution of a deterministic cell is
  bit-identical anyway).
* **Each frame carries what it needs** — an ASSIGN names its campaign
  and each lease's recipe, so a worker has nothing to install ahead of
  a lease; a RESULT counts only for a lease the live campaign granted
  and only with that lease's cell key (anything else is dropped as
  foreign); a heartbeat names the interval its worker keeps, and the
  worker is reaped after three of them pass in silence.
* **Heartbeat lease reconciliation** — heartbeats carry the worker's
  held lease-ids, so a *dropped* ASSIGN or RESULT frame (not just a
  dead worker) is detected: a lease old enough that the worker should
  be reporting it, but absent from the report, is expired and
  reassigned.
* **Work-stealing** — queued (not yet started) leases are revoked from
  saturated workers when others sit idle.
* **Journal shards** — each worker journals its completions into a
  private :class:`repro.journal.JournalShard`; the coordinator merges
  shards last-wins into the authoritative journal, so a SIGKILLed
  coordinator restarts with zero re-execution of anything any worker
  finished.
* **Seeded network chaos** — :class:`~repro.fleet.transport.FaultyTransport`
  drops/delays/duplicates/partitions frames from a
  :class:`repro.faults.FaultPlan`, the same seeded-plan machinery the
  simulated hardware uses.
* **Graceful degradation** — zero connected workers is not an error:
  ``run_campaign(fleet=...)`` hands unplaced cells back to the local
  supervised pool.
"""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.transport import FaultyTransport, FrameTransport, chaos_plan
from repro.fleet.worker import FleetWorker

__all__ = [
    "FaultyTransport",
    "FleetCoordinator",
    "FleetWorker",
    "FrameTransport",
    "chaos_plan",
]
