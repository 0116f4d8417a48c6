"""``repro.service.server`` — the asyncio HTTP front of the job server.

Ties the pieces together: :class:`~repro.service.jobs.JobStore` for
durability, :class:`~repro.service.admission.AdmissionController` for
tenant isolation, :class:`~repro.service.scheduler.FairShareScheduler`
for execution — behind a hand-rolled HTTP/1.1 API on
``asyncio.start_server`` (see :mod:`repro.service.wire`; no
``http.server``, no third-party frameworks).

Endpoints::

    GET  /healthz                liveness + state (ready|draining|...)
    GET  /readyz                 200 only while accepting jobs
    GET  /metrics                per-tenant counters, supervisor stats,
                                 queue depths, retention, fleet
    POST /v1/jobs                submit (idempotent by job key)
    GET  /v1/jobs                list (filter: ?tenant=&state=)
    GET  /v1/jobs/<id>           full record incl. result
    DELETE /v1/jobs/<id>         cancel (also POST /v1/jobs/<id>/cancel)
    GET  /v1/jobs/<id>/events    chunked JSONL progress stream

Crash tolerance: on start the store replays its journal and re-queues
every job the previous incarnation left non-terminal; each job's cells
then rehydrate from the job's own run journal, so a SIGKILL mid-sweep
costs re-dispatch, never re-execution. On SIGTERM the server *drains*:
``/readyz`` flips to 503, new submissions are rejected with an explicit
503/``draining`` error, running jobs get a grace period, and only then
does the process exit.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.service.admission import AdmissionController, AdmissionError, TenantQuota
from repro.service.jobs import JOB_KINDS, TERMINAL_STATES, JobSpec, JobStore
from repro.service.retention import sweep_retention
from repro.service.scheduler import FairShareScheduler
from repro.service.wire import (
    HttpRequest,
    JsonlStream,
    WireError,
    read_request,
    send_json,
)

__all__ = ["ServiceConfig", "SimulationService", "serve_until_complete"]

#: How long a connection may take to deliver one request.
REQUEST_TIMEOUT = 30.0
DEFAULT_TENANT = "anonymous"


@dataclass
class ServiceConfig:
    """Everything the server needs; defaults suit tests and the smoke."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (tests); CLI defaults to 7455
    service_id: str = "default"
    quota: TenantQuota = field(default_factory=TenantQuota)
    max_total_queued: int = 64
    max_concurrent: int = 1
    drain_grace_seconds: float = 30.0
    journal_directory: Optional[Path] = None
    #: Delete terminal jobs' run journals (and their fleet shards) this
    #: many hours after they finish; None disables the GC entirely.
    retention_hours: Optional[float] = None
    retention_interval_seconds: float = 60.0
    #: ``host:port`` to accept fleet workers on; campaign jobs then fan
    #: out across the fleet instead of (only) the local pool.
    fleet_listen: Optional[str] = None
    log: Any = None  # callable(str) or None


class SimulationService:
    """One job-server instance: store + admission + scheduler + HTTP."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.state = "starting"  # -> ready -> draining -> stopped
        self.started_at = time.time()
        self.store: Optional[JobStore] = None
        self.admission: Optional[AdmissionController] = None
        self.scheduler: Optional[FairShareScheduler] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._done: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._retention_task: Optional[asyncio.Task] = None
        self.fleet = None  # FleetCoordinator when fleet_listen is set
        self.retention_stats: Dict[str, int] = {}
        self.port: Optional[int] = None
        self.recovered_jobs = 0

    def _log(self, message: str) -> None:
        if self.config.log is not None:
            self.config.log(message)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Open the journal, recover, bind the socket, go ready."""
        cfg = self.config
        self._done = asyncio.Event()
        # Journal lock inside: a second replica on the same service id
        # dies here with JournalLockedError instead of corrupting state.
        self.store = JobStore(cfg.service_id, directory=cfg.journal_directory)
        self.admission = AdmissionController(
            quota=cfg.quota, max_total_queued=cfg.max_total_queued
        )
        if cfg.fleet_listen:
            from repro.fleet import FleetCoordinator

            fleet_host, _, fleet_port = cfg.fleet_listen.rpartition(":")
            self.fleet = FleetCoordinator(
                host=fleet_host or "127.0.0.1",
                port=int(fleet_port or 0),
                log=self._log,
            ).start()
            self._log(
                f"fleet coordinator on "
                f"{self.fleet.host}:{self.fleet.port} — join with: "
                f"border-control worker --connect "
                f"{self.fleet.host}:{self.fleet.port}"
            )
        self.scheduler = FairShareScheduler(
            self.store,
            quota=cfg.quota,
            max_concurrent=cfg.max_concurrent,
            fleet=self.fleet,
        )
        await self.scheduler.start()
        recovered = self.store.recover()
        self.recovered_jobs = len(recovered)
        for job in recovered:
            self._log(
                f"recovered job {job.id} ({job.spec.kind}, "
                f"tenant {job.tenant}): re-queued, cells resume from "
                f"journal {job.run_id}"
            )
            self.scheduler.submit(job)

        self._server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._install_signal_handlers()
        if cfg.retention_hours is not None:
            self._retention_task = asyncio.ensure_future(self._retention_loop())
        self.state = "ready"
        self._log(
            f"repro.service {cfg.service_id!r} ready on "
            f"http://{cfg.host}:{self.port} "
            f"(recovered {self.recovered_jobs} job(s))"
        )

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain, sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or non-unix: tests drive drain directly

    def request_drain(self, signum: int = signal.SIGTERM) -> None:
        """Begin graceful drain (idempotent; the SIGTERM entry point)."""
        if self._drain_task is None:
            self._log(f"signal {signum}: draining")
            self._drain_task = asyncio.ensure_future(self.drain())

    async def drain(self) -> None:
        """Reject new work, let running jobs finish, then stop."""
        if self.state in ("draining", "stopped"):
            return
        self.state = "draining"
        assert self.scheduler is not None
        await self.scheduler.drain(self.config.drain_grace_seconds)
        await self.stop()

    async def stop(self) -> None:
        """Tear everything down; idempotent."""
        if self.state == "stopped":
            return
        self.state = "stopped"
        if self._retention_task is not None:
            self._retention_task.cancel()
            self._retention_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.scheduler is not None:
            await self.scheduler.stop()
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        if self.store is not None:
            self.store.close()
        if self._done is not None:
            self._done.set()

    async def serve_forever(self) -> None:
        assert self._done is not None, "start() not called"
        await self._done.wait()

    # -- retention GC --------------------------------------------------------

    def run_retention_pass(self, now: Optional[float] = None) -> Dict[str, int]:
        """One journal-GC pass; accumulated into :attr:`retention_stats`."""
        assert self.store is not None
        assert self.config.retention_hours is not None
        # Job run journals live in the default journal directory (the
        # service journal's ``journal_directory`` override is separate).
        counters = sweep_retention(
            self.store.summaries(),
            self.config.retention_hours * 3600.0,
            now=now,
            log=self._log,
        )
        self.retention_stats["passes"] = self.retention_stats.get("passes", 0) + 1
        for name, value in counters.items():
            self.retention_stats[name] = self.retention_stats.get(name, 0) + value
        return counters

    async def _retention_loop(self) -> None:
        interval = max(1.0, self.config.retention_interval_seconds)
        while True:
            try:
                self.run_retention_pass()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - GC must not kill serving
                self._log(f"retention pass failed: {type(exc).__name__}: {exc}")
            await asyncio.sleep(interval)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), timeout=REQUEST_TIMEOUT
                )
            except asyncio.TimeoutError:
                await send_json(
                    writer, 400, {"error": "timeout", "message": "request timed out"}
                )
                return
            except WireError as exc:
                await send_json(
                    writer,
                    exc.status,
                    {"error": "bad-request", "message": exc.message},
                )
                return
            if request is None:
                return
            await self._route(request, writer)
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:  # noqa: BLE001 - connection must not kill server
            try:
                await send_json(
                    writer,
                    500,
                    {"error": "internal", "message": f"{type(exc).__name__}: {exc}"},
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, request: HttpRequest, writer) -> None:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            await self._get_healthz(writer)
        elif path == "/readyz" and method == "GET":
            await self._get_readyz(writer)
        elif path == "/metrics" and method == "GET":
            await self._get_metrics(writer)
        elif path == "/v1/jobs" and method == "POST":
            await self._post_job(request, writer)
        elif path == "/v1/jobs" and method == "GET":
            await self._list_jobs(request, writer)
        elif path.startswith("/v1/jobs/"):
            await self._job_subresource(request, writer)
        else:
            await send_json(
                writer,
                404,
                {"error": "not-found", "message": f"no route for {method} {path}"},
            )

    # -- operational endpoints ----------------------------------------------

    async def _get_healthz(self, writer) -> None:
        assert self.store is not None and self.scheduler is not None
        await send_json(
            writer,
            200,
            {
                "status": self.state,
                "service_id": self.config.service_id,
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "recovered_jobs": self.recovered_jobs,
                "scheduler": self.scheduler.snapshot(),
                "jobs": self.store.totals(),
            },
        )

    async def _get_readyz(self, writer) -> None:
        ready = self.state == "ready"
        await send_json(
            writer, 200 if ready else 503, {"ready": ready, "state": self.state}
        )

    async def _get_metrics(self, writer) -> None:
        assert self.store is not None
        assert self.admission is not None and self.scheduler is not None
        tenants: Dict[str, Dict[str, Any]] = {}
        names = set(self.admission.counters()) | set(self.scheduler.tenant_stats)
        names.update(job.tenant for job in self.store.summaries())
        admission = self.admission.counters()
        for name in sorted(names):
            tenants[name] = {
                "admission": admission.get(name, {"admitted": 0, "rejected": {}}),
                "depths": self.store.counts(name),
                "terminal": self.scheduler.tenant_stats.get(name, {}),
            }
        await send_json(
            writer,
            200,
            {
                "service_id": self.config.service_id,
                "state": self.state,
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "jobs": self.store.totals(),
                "scheduler": self.scheduler.snapshot(),
                "tenants": tenants,
                "retention": dict(self.retention_stats),
                "fleet": (
                    self.fleet.stats_snapshot() if self.fleet is not None else None
                ),
            },
        )

    # -- job CRUD ------------------------------------------------------------

    async def _post_job(self, request: HttpRequest, writer) -> None:
        assert self.store is not None
        assert self.admission is not None and self.scheduler is not None
        try:
            body = request.json()
        except WireError as exc:
            await send_json(
                writer, exc.status, {"error": "bad-request", "message": exc.message}
            )
            return
        if not isinstance(body, dict):
            await send_json(
                writer,
                400,
                {"error": "bad-request", "message": "body must be a JSON object"},
            )
            return
        tenant = str(
            body.get("tenant")
            or request.headers.get("x-tenant")
            or DEFAULT_TENANT
        )
        try:
            spec = JobSpec(
                kind=str(body.get("kind", "")),
                params=dict(body.get("params") or {}),
                priority=int(body.get("priority", 0)),
                deadline_seconds=body.get("deadline_seconds"),
                allow_partial=bool(body.get("allow_partial", False)),
                workers=int(body.get("workers", 1)),
            )
            spec.validate()
        except (TypeError, ValueError) as exc:
            await send_json(
                writer,
                400,
                {
                    "error": "bad-request",
                    "message": f"invalid job spec: {exc}",
                    "kinds": list(JOB_KINDS),
                },
            )
            return

        # Idempotent resubmission: an identical live job is *joined*,
        # not duplicated — same key, same run journal, same result.
        existing = self.store.active_by_key(spec.job_key())
        if existing is not None and existing.tenant == tenant:
            await send_json(
                writer,
                200,
                {"job": existing.to_dict(include_result=False), "deduplicated": True},
            )
            return

        try:
            self.admission.admit(
                tenant,
                tenant_queued=self.store.counts(tenant)["queued"],
                total_queued=self.store.counts()["queued"],
                draining=self.state != "ready",
            )
        except AdmissionError as exc:
            await send_json(
                writer,
                exc.status,
                {"error": exc.code, "message": exc.message, "tenant": tenant},
                extra_headers={"Retry-After": "1"},
            )
            return

        job = self.store.create(tenant, spec)
        self.scheduler.submit(job)
        self._log(
            f"admitted job {job.id} ({spec.kind}, tenant {tenant}, "
            f"key {spec.job_key()[:8]})"
        )
        await send_json(
            writer, 201, {"job": job.to_dict(include_result=False)}
        )

    async def _list_jobs(self, request: HttpRequest, writer) -> None:
        assert self.store is not None
        jobs = self.store.records(
            tenant=request.query.get("tenant"), state=request.query.get("state")
        )
        await send_json(writer, 200, {"jobs": jobs, "count": len(jobs)})

    async def _job_subresource(self, request: HttpRequest, writer) -> None:
        assert self.store is not None and self.scheduler is not None
        parts = request.path.strip("/").split("/")  # v1 jobs <id> [verb]
        job_id = parts[2] if len(parts) > 2 else ""
        verb = parts[3] if len(parts) > 3 else None
        state = self.store.state_of(job_id)
        if state is None:
            await send_json(
                writer,
                404,
                {"error": "not-found", "message": f"no job {job_id!r}"},
            )
            return

        if verb is None and request.method == "GET":
            include_result = request.query.get("result", "1") != "0"
            await send_json(
                writer, 200, {"job": self.store.record(job_id, include_result)}
            )
        elif (verb is None and request.method == "DELETE") or (
            verb == "cancel" and request.method == "POST"
        ):
            if state in TERMINAL_STATES:
                await send_json(
                    writer,
                    409,
                    {
                        "error": "terminal",
                        "message": f"job {job_id} already {state}",
                    },
                )
                return
            self.scheduler.cancel(job_id)
            await send_json(
                writer,
                202,
                {"job": self.store.record(job_id, include_result=False)},
            )
        elif verb == "events" and request.method == "GET":
            await self._stream_events(job_id, writer)
        else:
            await send_json(
                writer,
                405,
                {
                    "error": "method-not-allowed",
                    "message": f"{request.method} not supported here",
                },
            )

    async def _stream_events(self, job_id: str, writer) -> None:
        """Replay the job's event log, then follow it to a terminal state."""
        assert self.store is not None and self.scheduler is not None
        stream = JsonlStream(writer)
        await stream.start(200)
        sent = 0
        while True:
            events = self.scheduler.events_of(job_id)
            while sent < len(events):
                await stream.send(events[sent])
                sent += 1
            state = self.store.state_of(job_id)
            if state in TERMINAL_STATES or state is None or self.state == "stopped":
                break
            async with self.scheduler.changed:
                try:
                    await asyncio.wait_for(
                        self.scheduler.changed.wait(), timeout=1.0
                    )
                except asyncio.TimeoutError:
                    pass  # re-check terminality even without new events
        state = self.store.state_of(job_id) or "unknown"
        await stream.send({"event": "end", "job": job_id, "state": state})
        await stream.close()


async def serve_until_complete(config: ServiceConfig) -> int:
    """Run one server until SIGTERM/SIGINT drains it. Returns exit code."""
    service = SimulationService(config)
    await service.start()
    try:
        await service.serve_forever()
    finally:
        await service.stop()
    return 0
