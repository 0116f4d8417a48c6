"""``repro.fleet.protocol`` — the coordinator↔worker frame vocabulary.

Every frame is one length-prefixed JSON object (see
:func:`repro.service.wire.encode_frame`) with a ``type`` field. The
builders here are the single source of truth for frame shapes; both
ends (and the tests) construct frames through them.

Conversation shape::

    worker                        coordinator
      | -- HELLO ------------------> |   (identity, slot count, version)
      | <------------------- ASSIGN |   (campaign context + leases with recipes)
      | -- HEARTBEAT --------------> |   (held lease ids, running count, interval)
      | -- RESULT -----------------> |   (one lease's journal entry)
      | <------------------- REVOKE |   (work-stealing / cleanup)
      | -- REVOKED ----------------> |   (queued leases actually released)
      | <----------------- SHUTDOWN |   (campaign over; standalone mode)

Each frame carries what it needs, so nothing is installed ahead of a
lease: an ASSIGN names its campaign and each lease's recipe, a RESULT
names the lease it answers, and a HEARTBEAT names the cadence its
sender keeps. A HELLO naming another :data:`PROTOCOL_VERSION` is
answered with SHUTDOWN and the connection closed: such a worker would
misread the ASSIGN and hold leases it never runs.

Failure taxonomy (who notices what):

* dead worker — TCP EOF, or three of its own announced heartbeat
  intervals of silence: every lease it held is expired and reassigned;
* dropped ASSIGN — the lease never shows up in the worker's heartbeat
  ``held`` set: expired and reassigned (the worker ignores nothing — it
  simply never knew);
* dropped RESULT — the worker no longer reports the lease as held, so
  the coordinator reassigns; the worker remembers *successfully*
  finished indexes of its current campaign and answers a duplicate
  ASSIGN by re-sending the stored RESULT instead of recomputing (failed
  indexes are retried for real — a duplicate ASSIGN for one re-executes
  the cell);
* foreign RESULT — a result for a lease the live campaign never
  granted, or whose key is not that lease's cell (a worker that
  finished a cell after its campaign ended): dropped and counted;
* half-open connection — workers heartbeat from the moment the
  session opens (at :data:`DEFAULT_HEARTBEAT_SECONDS` until an ASSIGN
  names the campaign cadence), so a peer that connected but went
  silent is reaped instead of counting toward ``min_workers`` forever;
* dropped REVOKED — the released leases linger in the coordinator's
  table until heartbeat reconciliation expires them;
* duplicated anything — lease and index dedup on both ends makes a
  repeated frame a no-op;
* dead coordinator — workers keep computing and journaling to their
  shards; the restarted coordinator merges shards before assigning.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

__all__ = [
    "ASSIGN",
    "DEFAULT_HEARTBEAT_SECONDS",
    "HEARTBEAT",
    "HELLO",
    "PROTOCOL_VERSION",
    "RESULT",
    "REVOKE",
    "REVOKED",
    "SHUTDOWN",
    "assign",
    "campaign",
    "heartbeat",
    "hello",
    "result",
    "revoke",
    "revoked",
    "shutdown",
]

#: Version 3: every ASSIGN carries its campaign and its cells' recipes.
PROTOCOL_VERSION = 3

#: Heartbeat cadence a worker keeps until an ASSIGN names the campaign
#: cadence; the coordinator assumes it for a worker not yet heard from.
DEFAULT_HEARTBEAT_SECONDS = 1.0

HELLO = "hello"
ASSIGN = "assign"
HEARTBEAT = "heartbeat"
RESULT = "result"
REVOKE = "revoke"
REVOKED = "revoked"
SHUTDOWN = "shutdown"


def hello(worker_id: str, slots: int) -> Dict[str, object]:
    return {
        "type": HELLO,
        "protocol": PROTOCOL_VERSION,
        "worker_id": worker_id,
        "slots": slots,
    }


def campaign(
    campaign_id: str,
    kind: str,
    fresh: bool,
    heartbeat_seconds: float,
    run_id: Optional[str] = None,
    journal_dir: Optional[str] = None,
) -> Dict[str, object]:
    """The campaign context every ASSIGN carries.

    ``campaign_id`` is unique per ``map_cells`` call (the coordinator
    appends a nonce to the run id): a worker keys its finished-index
    memory on it, and a resumed run re-indexes the pending cells, so
    two campaigns never share an id.

    ``kind`` names a :class:`repro.supervisor.CampaignKind` (``sweep``,
    ``chaos`` or ``recovery``; see :func:`repro.sweep.campaign_kind`);
    the worker runs each lease's cell as the same task ``run_campaign``
    submits (``fresh`` as there). ``journal_dir`` (when the campaign
    journals) is where the worker opens its shard; ``None`` disables
    sharding (nothing to resume into). ``heartbeat_seconds`` is the
    cadence the worker adopts once it joins the campaign.
    """
    return {
        "id": campaign_id,
        "kind": kind,
        "fresh": fresh,
        "heartbeat_seconds": heartbeat_seconds,
        "run_id": run_id,
        "journal_dir": journal_dir,
    }


def assign(
    context: Dict[str, object], leases: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Leases of the campaign ``context`` (see :func:`campaign`).

    ``leases`` is a list of ``{"lease_id", "index", "cell"}``: ``cell``
    is the kind's ``recipe_of`` payload, ``index`` the cell's place in
    the campaign (the worker's finished-index memory key).
    """
    return {"type": ASSIGN, "campaign": dict(context), "leases": list(leases)}


def heartbeat(
    worker_id: str,
    held: Sequence[str],
    running: int,
    interval: float = DEFAULT_HEARTBEAT_SECONDS,
) -> Dict[str, object]:
    """Liveness plus the worker's view of its leases.

    ``held`` is every lease the worker still considers its own
    (queued or running); the coordinator reconciles it against the
    lease table to detect frames lost in either direction.
    ``interval`` is the cadence the worker heartbeats at: the
    coordinator reaps it after three of them pass in silence.
    """
    return {
        "type": HEARTBEAT,
        "worker_id": worker_id,
        "held": list(held),
        "running": int(running),
        "interval": float(interval),
    }


def result(
    lease_id: str,
    key: str,
    entry: Dict[str, object],
    seq: Optional[int] = None,
) -> Dict[str, object]:
    """One leased cell, finished: its journal key and entry, verbatim.

    ``entry`` is the same payload ``run_campaign`` journals locally
    (label/ok/error/wall_seconds/attempts/cacheable/cache_hit/result),
    so the coordinator can append it to the authoritative journal
    unchanged — once ``lease_id`` names a lease the live campaign
    granted and ``key`` is that lease's cell's journal key. ``seq`` is
    the worker-shard sequence for provenance.
    """
    return {
        "type": RESULT,
        "lease_id": lease_id,
        "key": key,
        "entry": dict(entry),
        "seq": seq,
    }


def revoke(count: int = 0, lease_ids: Optional[Sequence[str]] = None) -> Dict[str, object]:
    """Ask for queued leases back: up to ``count``, or specific ids."""
    return {
        "type": REVOKE,
        "count": int(count),
        "lease_ids": list(lease_ids or []),
    }


def revoked(leases: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """``leases``: the ``{"lease_id", "index"}`` pairs actually released."""
    return {"type": REVOKED, "leases": list(leases)}


def shutdown(reason: str = "campaign complete") -> Dict[str, object]:
    return {"type": SHUTDOWN, "reason": reason}
