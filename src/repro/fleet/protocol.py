"""``repro.fleet.protocol`` — the coordinator↔worker frame vocabulary.

Every frame is one length-prefixed JSON object (see
:func:`repro.service.wire.encode_frame`) with a ``type`` field. The
builders here are the single source of truth for frame shapes; both
ends (and the tests) construct frames through them.

Conversation shape::

    worker                        coordinator
      | -- HELLO ------------------> |   (identity, slot count, version)
      | <------------------ WELCOME |   (campaign: kind, recipes, ...)
      | <------------------- ASSIGN |   (leases: cell indexes)
      | -- HEARTBEAT --------------> |   (held lease ids + running count)
      | -- RESULT -----------------> |   (one cell's journal entry)
      | <------------------- REVOKE |   (work-stealing / cleanup)
      | -- REVOKED ----------------> |   (queued leases actually released)
      | <----------------- SHUTDOWN |   (campaign over; standalone mode)

A HELLO naming another :data:`PROTOCOL_VERSION` is answered with
SHUTDOWN and the connection closed: such a worker would misread the
WELCOME and hold leases it never runs.

Failure taxonomy (who notices what):

* dead worker — TCP EOF, or missed heartbeats: every lease it held is
  expired and reassigned;
* dropped ASSIGN — the lease never shows up in the worker's heartbeat
  ``held`` set: expired and reassigned (the worker ignores nothing — it
  simply never knew);
* dropped RESULT — the worker no longer reports the lease as held, so
  the coordinator reassigns; the worker remembers *successfully*
  finished indexes and answers a duplicate ASSIGN by re-sending the
  stored RESULT instead of recomputing (failed indexes are retried
  for real — a duplicate ASSIGN for one re-executes the cell);
* half-open connection — workers heartbeat from the moment the
  session opens (pre-WELCOME, at :data:`DEFAULT_HEARTBEAT_SECONDS`),
  so a peer that connected but went silent is reaped after a connect
  grace instead of counting toward ``min_workers`` forever;
* dropped REVOKED — the released leases linger in the coordinator's
  table until heartbeat reconciliation expires them;
* duplicated anything — lease and index dedup on both ends makes a
  repeated frame a no-op;
* dead coordinator — workers keep computing and journaling to their
  shards; the restarted coordinator merges shards before assigning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
    "WELCOME",
    "assign",
    "heartbeat",
    "hello",
    "result",
    "revoke",
    "revoked",
    "shutdown",
    "welcome",
]

#: Version 2: WELCOME names a campaign kind and ships recipes.
PROTOCOL_VERSION = 2

#: Heartbeat cadence a worker uses before its first WELCOME tells it
#: the campaign cadence; the coordinator's connect-grace reaping of
#: un-welcomed workers is sized against this.
DEFAULT_HEARTBEAT_SECONDS = 1.0

HELLO = "hello"
WELCOME = "welcome"
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


def welcome(
    campaign_id: str,
    kind: str,
    cells: Sequence[Dict[str, object]],
    fresh: bool,
    heartbeat_seconds: float,
    run_id: Optional[str] = None,
    journal_dir: Optional[str] = None,
) -> Dict[str, object]:
    """The whole campaign context, shipped once per (re)connection.

    ``campaign_id`` must be unique per ``map_cells`` call (the
    coordinator appends a nonce to the run id): a worker keys its
    index-addressed memory on it, and a resumed run re-indexes the
    pending cells, so two campaigns must never share an id. Workers
    additionally fingerprint the kind and cell list and reinstall on
    any mismatch.

    ``kind`` names a :class:`repro.supervisor.CampaignKind` (``sweep``,
    ``chaos`` or ``recovery``; see :func:`repro.sweep.campaign_kind`)
    and ``cells`` are that kind's ``recipe_of`` payloads. The worker
    rebuilds each cell with the kind's ``cell_of`` and submits it to
    its host's shared pool as the same task ``run_campaign`` submits
    (``fresh`` as there). ``journal_dir`` (when the campaign journals)
    is where the worker opens its shard; ``None`` disables sharding
    (nothing to resume into).
    """
    return {
        "type": WELCOME,
        "campaign_id": campaign_id,
        "run_id": run_id,
        "journal_dir": journal_dir,
        "kind": kind,
        "cells": list(cells),
        "fresh": fresh,
        "heartbeat_seconds": heartbeat_seconds,
    }


def assign(leases: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """``leases`` is a list of ``{"lease_id": ..., "index": ...}``."""
    return {"type": ASSIGN, "leases": list(leases)}


def heartbeat(
    worker_id: str,
    held: Sequence[str],
    running: int,
    campaign_id: Optional[str] = None,
) -> Dict[str, object]:
    """Liveness plus the worker's view of its leases.

    ``held`` is every lease the worker still considers its own
    (queued or running); the coordinator reconciles it against the
    lease table to detect frames lost in either direction.
    ``campaign_id`` is the campaign the worker has *installed* (None
    before any WELCOME arrived) — a mismatch against the active
    campaign tells the coordinator its WELCOME was lost and must be
    re-sent, since a heartbeating-but-uninstalled worker would
    otherwise absorb leases forever without executing anything.
    """
    return {
        "type": HEARTBEAT,
        "worker_id": worker_id,
        "held": list(held),
        "running": int(running),
        "campaign_id": campaign_id,
    }


def result(
    lease_id: str,
    index: int,
    key: str,
    entry: Dict[str, object],
    seq: Optional[int] = None,
) -> Dict[str, object]:
    """One finished cell: its journal entry, verbatim.

    ``entry`` is the same payload ``run_campaign`` journals locally
    (label/ok/error/wall_seconds/attempts/cacheable/cache_hit/result),
    so the coordinator can append it to the authoritative journal
    unchanged; ``seq`` is the worker-shard sequence for provenance.
    """
    return {
        "type": RESULT,
        "lease_id": lease_id,
        "index": int(index),
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
