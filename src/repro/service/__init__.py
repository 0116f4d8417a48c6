"""``repro.service`` — simulation-as-a-service: the crash-tolerant,
multi-tenant job server over the sandbox reproduction stack.

The package splits along testable seams:

* :mod:`repro.service.wire` — hand-rolled HTTP/1.1 framing on asyncio
  streams (no ``http.server``, no dependencies), including the chunked
  JSONL progress stream.
* :mod:`repro.service.jobs` — the durable job state machine
  (``submitted → queued → running → done|partial|failed|cancelled``)
  persisted through the append-only run journal, with content-hashed
  idempotent job keys.
* :mod:`repro.service.admission` — per-tenant quotas, token-bucket
  submit rates, bounded queues, explicit 429/503 rejections.
* :mod:`repro.service.scheduler` — fair-share + priority dispatch onto
  the supervised worker pool, with deadlines and cooperative
  cancellation.
* :mod:`repro.service.server` — the asyncio front: routing, operational
  endpoints (``/healthz``, ``/readyz``, ``/metrics``), job CRUD,
  streaming, and SIGTERM graceful drain.

Start one with ``python -m repro serve`` (see ``docs/API.md``).
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionError,
    TenantQuota,
    TokenBucket,
)
from repro.service.jobs import (
    JOB_KINDS,
    TERMINAL_STATES,
    InvalidTransition,
    Job,
    JobSpec,
    JobStore,
)
from repro.service.scheduler import FairShareScheduler, execute_job
from repro.service.server import ServiceConfig, SimulationService, serve_until_complete

__all__ = [
    "JOB_KINDS",
    "TERMINAL_STATES",
    "AdmissionController",
    "AdmissionError",
    "FairShareScheduler",
    "InvalidTransition",
    "Job",
    "JobSpec",
    "JobStore",
    "ServiceConfig",
    "SimulationService",
    "TenantQuota",
    "TokenBucket",
    "execute_job",
    "serve_until_complete",
]
