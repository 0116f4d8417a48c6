"""End-to-end tests for the job server over real sockets.

Each test boots a :class:`SimulationService` on an ephemeral port
inside ``asyncio.run`` and talks to it with a raw asyncio HTTP client
(one connection per request, mirroring the server's
``Connection: close`` model). Sweeps use the tiny ``ops_scale`` the
rest of the suite uses, so a full submit → run → done round trip is a
second or two.

Scheduler dispatch is *paused* (``scheduler.draining`` — the same flag
``drain()`` uses) in the tests that need deterministic queue contents;
admission keys off the service state, not that flag, so submissions
still flow.
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
import time
import types
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.service import ServiceConfig, SimulationService, TenantQuota
from repro.service.jobs import TERMINAL_STATES

SCALE = 0.05
TINY_PARAMS = {"grids": ["fig5"], "workloads": ["backprop"], "ops_scale": SCALE}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def sweep_body(tenant: str = "alice", **over) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "tenant": tenant,
        "kind": "sweep",
        "params": dict(TINY_PARAMS),
    }
    body["params"].update(over.pop("params", {}))
    body.update(over)
    return body


async def http(
    port: int,
    method: str,
    path: str,
    body: Optional[dict] = None,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Any]:
    """One request over a fresh connection; decodes JSON and JSONL."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        lines = [f"{method} {path} HTTP/1.1", "Host: test"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if data:
            lines.append(f"Content-Length: {len(data)}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + data)
        await writer.drain()

        status_line = await reader.readline()
        status = int(status_line.split()[1])
        resp_headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            resp_headers[name.strip().lower()] = value.strip()

        if resp_headers.get("transfer-encoding") == "chunked":
            chunks = []
            while True:
                size = int((await reader.readline()).strip(), 16)
                if size == 0:
                    await reader.readline()
                    break
                chunks.append(await reader.readexactly(size))
                await reader.readexactly(2)  # trailing CRLF
            text = b"".join(chunks).decode("utf-8")
            return status, [json.loads(l) for l in text.splitlines() if l]
        length = int(resp_headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else None)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def start_service(**over) -> SimulationService:
    quota = TenantQuota(**over.pop("quota", {}))
    config = ServiceConfig(
        port=0,
        service_id=over.pop("service_id", "test"),
        quota=quota,
        **over,
    )
    service = SimulationService(config)
    await service.start()
    return service


async def wait_terminal(
    port: int, job_id: str, timeout: float = 120.0
) -> Dict[str, Any]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, out = await http(port, "GET", f"/v1/jobs/{job_id}")
        if out["job"]["state"] in TERMINAL_STATES:
            return out["job"]
        await asyncio.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def test_healthz_readyz_and_404():
    async def go():
        svc = await start_service()
        try:
            status, health = await http(svc.port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ready"
            assert health["scheduler"]["running"] == 0
            status, ready = await http(svc.port, "GET", "/readyz")
            assert status == 200 and ready["ready"] is True
            status, err = await http(svc.port, "GET", "/no/such/route")
            assert status == 404 and err["error"] == "not-found"
            status, err = await http(svc.port, "GET", "/v1/jobs/jNOPE")
            assert status == 404
        finally:
            await svc.stop()

    asyncio.run(go())


def test_submit_runs_to_done_with_result_and_metrics():
    async def go():
        svc = await start_service()
        try:
            status, out = await http(svc.port, "POST", "/v1/jobs", sweep_body())
            assert status == 201, out
            job = out["job"]
            assert job["state"] in ("queued", "running")
            assert job["kind"] == "sweep" and job["tenant"] == "alice"

            final = await wait_terminal(svc.port, job["id"])
            assert final["state"] == "done", final["error"]
            result = final["result"]
            assert result["completion_rate"] == 1.0
            assert len(result["cells"]) == 1 and result["cells"][0]["ok"]
            assert "supervisor" in result  # SupervisorStats surfaced

            status, metrics = await http(svc.port, "GET", "/metrics")
            assert status == 200
            alice = metrics["tenants"]["alice"]
            assert alice["admission"]["admitted"] == 1
            assert alice["terminal"]["done"] == 1
            assert "supervisor" in alice["terminal"]
            assert metrics["jobs"] == {"done": 1}
            assert metrics["retention"] == {}  # retention disabled
            assert metrics["fleet"] is None  # no fleet listener
        finally:
            await svc.stop()

    asyncio.run(go())


def test_retention_pass_reclaims_expired_job_journal_and_counts():
    async def go():
        svc = await start_service(retention_hours=1.0)
        try:
            status, out = await http(svc.port, "POST", "/v1/jobs", sweep_body())
            assert status == 201, out
            job = await wait_terminal(svc.port, out["job"]["id"])
            assert job["state"] == "done"

            from repro.journal import journal_dir

            journal = journal_dir() / f"{job['run_id']}.jsonl"
            assert journal.exists()

            # A pass inside the window protects the fresh journal; a
            # pass "an age later" reclaims it.
            assert svc.run_retention_pass()["journals_deleted"] == 0
            assert journal.exists()
            late = svc.run_retention_pass(now=time.time() + 7200.0)
            assert late["journals_deleted"] == 1
            assert not journal.exists()

            status, metrics = await http(svc.port, "GET", "/metrics")
            assert status == 200
            # >= 2: the background retention loop may have run its own
            # startup pass on top of the two explicit ones.
            assert metrics["retention"]["passes"] >= 2
            assert metrics["retention"]["journals_deleted"] == 1
            assert metrics["retention"]["bytes_reclaimed"] > 0
        finally:
            await svc.stop()

    asyncio.run(go())


def test_invalid_specs_rejected_with_400():
    async def go():
        svc = await start_service()
        try:
            status, out = await http(
                svc.port, "POST", "/v1/jobs", {"kind": "nonsense"}
            )
            assert status == 400 and out["error"] == "bad-request"
            status, out = await http(
                svc.port, "POST", "/v1/jobs", {"kind": "sweep", "workers": 0}
            )
            assert status == 400
            status, out = await http(svc.port, "POST", "/v1/jobs", None)
            assert status == 400  # no body at all
        finally:
            await svc.stop()

    asyncio.run(go())


def test_tenant_quota_rejects_overflow_but_not_other_tenants():
    async def go():
        svc = await start_service(quota={"max_queued": 2, "submit_burst": 50})
        try:
            svc.scheduler.draining = True  # pause dispatch: jobs stay queued
            for seed in (1, 2):
                status, out = await http(
                    svc.port,
                    "POST",
                    "/v1/jobs",
                    sweep_body(params={"seed": seed}),
                )
                assert status == 201, out
            # Tenant A's third job overflows its quota: explicit 429.
            status, out = await http(
                svc.port, "POST", "/v1/jobs", sweep_body(params={"seed": 3})
            )
            assert status == 429
            assert out["error"] == "tenant-queue-full"
            # Tenant B is admitted despite A's saturation.
            status, out = await http(
                svc.port,
                "POST",
                "/v1/jobs",
                sweep_body(tenant="bob", params={"seed": 4}),
            )
            assert status == 201, out
            status, metrics = await http(svc.port, "GET", "/metrics")
            assert metrics["tenants"]["alice"]["admission"]["rejected"] == {
                "tenant-queue-full": 1
            }
            assert metrics["tenants"]["bob"]["admission"]["admitted"] == 1
        finally:
            await svc.stop()

    asyncio.run(go())


def test_rate_limit_rejects_tight_submit_loop():
    async def go():
        svc = await start_service(
            quota={"submit_rate": 0.001, "submit_burst": 2, "max_queued": 50}
        )
        try:
            svc.scheduler.draining = True
            codes = []
            for seed in range(4):
                status, out = await http(
                    svc.port,
                    "POST",
                    "/v1/jobs",
                    sweep_body(params={"seed": seed}),
                )
                codes.append(status)
            assert codes == [201, 201, 429, 429]
            assert out["error"] == "rate-limited"
        finally:
            await svc.stop()

    asyncio.run(go())


def test_idempotent_resubmission_joins_live_job():
    async def go():
        svc = await start_service()
        try:
            svc.scheduler.draining = True
            _, first = await http(svc.port, "POST", "/v1/jobs", sweep_body())
            status, second = await http(
                svc.port, "POST", "/v1/jobs", sweep_body(priority=5)
            )
            # Same work content (priority is not part of the key): joined.
            assert status == 200 and second["deduplicated"] is True
            assert second["job"]["id"] == first["job"]["id"]
        finally:
            await svc.stop()

    asyncio.run(go())


def test_cancel_queued_job_and_terminal_conflict():
    async def go():
        svc = await start_service()
        try:
            svc.scheduler.draining = True
            _, out = await http(svc.port, "POST", "/v1/jobs", sweep_body())
            job_id = out["job"]["id"]
            status, out = await http(svc.port, "DELETE", f"/v1/jobs/{job_id}")
            assert status == 202 and out["job"]["state"] == "cancelled"
            status, out = await http(
                svc.port, "POST", f"/v1/jobs/{job_id}/cancel"
            )
            assert status == 409 and out["error"] == "terminal"
            _, listing = await http(
                svc.port, "GET", "/v1/jobs?tenant=alice&state=cancelled"
            )
            assert listing["count"] == 1
        finally:
            await svc.stop()

    asyncio.run(go())


def test_deadline_aborts_job():
    async def go():
        svc = await start_service()
        try:
            _, out = await http(
                svc.port,
                "POST",
                "/v1/jobs",
                sweep_body(deadline_seconds=0.01),
            )
            final = await wait_terminal(svc.port, out["job"]["id"])
            assert final["state"] == "failed"
            assert "deadline" in final["error"]
            assert final["deadline_hit"] is True
        finally:
            await svc.stop()

    asyncio.run(go())


def test_events_stream_replays_and_terminates():
    async def go():
        svc = await start_service()
        try:
            _, out = await http(svc.port, "POST", "/v1/jobs", sweep_body())
            job_id = out["job"]["id"]
            await wait_terminal(svc.port, job_id)
            status, events = await http(
                svc.port, "GET", f"/v1/jobs/{job_id}/events"
            )
            assert status == 200
            kinds = [e["event"] for e in events]
            assert kinds[0] == "state"  # queued
            assert "cell" in kinds  # per-cell progress
            assert kinds[-1] == "end"
            states = [e["state"] for e in events if e["event"] == "state"]
            assert states[-1] == "done"
        finally:
            await svc.stop()

    asyncio.run(go())


def test_drain_flips_ready_and_rejects_submissions():
    async def go():
        svc = await start_service()
        try:
            svc.state = "draining"  # what SIGTERM's request_drain sets first
            status, ready = await http(svc.port, "GET", "/readyz")
            assert status == 503 and ready["state"] == "draining"
            status, out = await http(svc.port, "POST", "/v1/jobs", sweep_body())
            assert status == 503 and out["error"] == "draining"
        finally:
            svc.state = "ready"
            await svc.stop()

    asyncio.run(go())


def test_restart_recovers_queued_job_and_finishes_it(tmp_path):
    async def first_incarnation():
        svc = await start_service(service_id="crashy")
        svc.scheduler.draining = True  # keep the job queued, then "die"
        _, out = await http(svc.port, "POST", "/v1/jobs", sweep_body())
        await svc.stop()
        return out["job"]["id"]

    async def second_incarnation(job_id):
        svc = await start_service(service_id="crashy")
        try:
            assert svc.recovered_jobs == 1
            final = await wait_terminal(svc.port, job_id)
            assert final["state"] == "done", final["error"]
            assert final["recovered"] is True
        finally:
            await svc.stop()

    job_id = asyncio.run(first_incarnation())
    asyncio.run(second_incarnation(job_id))


#: Two- and three-cell bfs campaigns for the chaos and recovery jobs.
CAMPAIGN_PARAMS = {
    "chaos": {"workloads": ["bfs"], "fault_types": ["drop", "delay"], "ops_scale": 0.1},
    "recovery": {
        "workloads": ["bfs"],
        "scenarios": ["rogue-write", "storm"],
        "ops_scale": 0.1,
    },
}


@pytest.mark.parametrize("kind", sorted(CAMPAIGN_PARAMS))
def test_campaign_job_reports_progress_resume_and_partial(kind):
    """Chaos and recovery jobs report cells the way sweep jobs do."""

    async def run_job(port: int, params: Dict[str, Any], **over) -> Dict[str, Any]:
        body = {"tenant": "alice", "kind": kind, "params": params, **over}
        status, out = await http(port, "POST", "/v1/jobs", body)
        assert status == 201, out
        return await wait_terminal(port, out["job"]["id"])

    async def go():
        svc = await start_service()
        try:
            params = CAMPAIGN_PARAMS[kind]
            first = await run_job(svc.port, params)
            assert first["state"] == "done", first["error"]
            labels = [cell["label"] for cell in first["result"]["cells"]]
            _, events = await http(svc.port, "GET", f"/v1/jobs/{first['id']}/events")
            progress = [e["label"] for e in events if e["event"] == "cell"]
            assert progress == labels  # one event per cell, in grid order

            again = await run_job(svc.port, params)
            assert again["state"] == "done", again["error"]
            assert again["resumed_cells"] == len(labels)
            assert all(cell["resumed"] for cell in again["result"]["cells"])

            failing = dict(params, workloads=["nope", "bfs"])
            partial = await run_job(svc.port, failing, allow_partial=True)
            assert partial["state"] == "partial", partial["error"]
            result = partial["result"]
            survivors = [cell for cell in result["cells"] if cell["ok"]]
            assert [cell["label"] for cell in survivors] == labels
            assert all(cell["result"] is not None for cell in survivors)
            assert len(result["runs"]) == len(labels)
            assert all(f.startswith("nope[") for f in result["failures"])
        finally:
            await svc.stop()

    asyncio.run(go())


def _job_data_held(root: Any) -> list:
    """Job results, event logs and job records reachable from ``root``.

    Walks ``gc.get_referents`` from ``root`` without entering modules,
    classes or module namespaces, so it sees what the object graph
    under ``root`` keeps alive, not the interpreter's globals.
    """
    namespaces = {id(vars(m)) for m in list(sys.modules.values()) if m is not None}
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in namespaces:
            continue
        if isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict) and (
            {"cells", "completion_rate"} <= obj.keys()  # a job result
            or {"ts", "job", "event"} <= obj.keys()  # an event
            or {"id", "spec", "state"} <= obj.keys()  # a job record
        ):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


#: Jobs a long-lived server has served in the history tests.
HISTORY_JOBS = 20
#: A quota that admits every history job however fast the jobs finish:
#: the default (5/s, burst 10) refuses some when 20 finish within ~2 s.
#: These tests check memory and read-back, not admission.
HISTORY_QUOTA = {"submit_burst": HISTORY_JOBS}


async def read_back(port: int, job_id: str) -> Tuple[Any, Any]:
    """A job's ``GET /v1/jobs/<id>`` body and its ``/events`` list."""
    _, record = await http(port, "GET", f"/v1/jobs/{job_id}")
    _, events = await http(port, "GET", f"/v1/jobs/{job_id}/events")
    return record, events


async def run_history(svc: SimulationService) -> Dict[str, Any]:
    """Run ``HISTORY_JOBS`` tiny sweep jobs one after another.

    The first job's ``/events`` stream is attached while it runs; its
    record and events are read again the moment it finished. Also
    returns how many results the result-cache memo held after each job.
    """
    from repro.experiments import common

    out: Dict[str, Any] = {"ids": [], "memo": []}
    for seed in range(HISTORY_JOBS):
        status, posted = await http(
            svc.port, "POST", "/v1/jobs", sweep_body(params={"seed": seed})
        )
        assert status == 201, posted
        job_id = posted["job"]["id"]
        out["ids"].append(job_id)
        if seed == 0:
            _, out["streamed"] = await http(
                svc.port, "GET", f"/v1/jobs/{job_id}/events"
            )
        assert (await wait_terminal(svc.port, job_id))["state"] == "done"
        out["memo"].append(len(common._memory_cache))
        if seed == 0:
            out["first"] = await read_back(svc.port, job_id)
    return out


def test_finished_jobs_leave_no_result_events_or_record_in_memory():
    """A finished job's result, event log and journal record live in
    the service journal only, and a campaign leaves no result in the
    result-cache memo; a restarted server loads none of them either."""

    async def go():
        svc = await start_service(service_id="history", quota=HISTORY_QUOTA)
        try:
            # Keep no client-side copy: under asyncio debug the loop
            # references the running task, and so this frame.
            memo = (await run_history(svc))["memo"]
            assert memo == [0] * HISTORY_JOBS
            assert _job_data_held(svc) == []
        finally:
            await svc.stop()
        svc = await start_service(service_id="history")
        try:
            assert _job_data_held(svc) == []
        finally:
            await svc.stop()

    asyncio.run(go())


def test_finished_job_reads_back_unchanged_after_restart():
    """The first of many jobs returns the record and events it returned
    the moment it finished, later and after a restart; its stream,
    attached while it ran, saw each event once; ``/metrics`` and
    retention still count every finished job."""

    async def first_incarnation():
        svc = await start_service(service_id="history", quota=HISTORY_QUOTA)
        try:
            history = await run_history(svc)
            first, (_, events) = history["ids"][0], history["first"]
            streamed = history["streamed"]
            assert streamed == events
            distinct = {json.dumps(event, sort_keys=True) for event in streamed}
            assert len(distinct) == len(streamed)
            assert [e["event"] for e in events][-2:] == ["state", "end"]
            assert await read_back(svc.port, first) == history["first"]
            _, metrics = await http(svc.port, "GET", "/metrics")
            assert metrics["jobs"] == {"done": HISTORY_JOBS}
            assert metrics["tenants"]["alice"]["terminal"]["done"] == HISTORY_JOBS
            _, listed = await http(svc.port, "GET", "/v1/jobs?state=done")
            assert [job["id"] for job in listed["jobs"]] == history["ids"]
            assert all("result" not in job for job in listed["jobs"])
            return first, history["first"]
        finally:
            await svc.stop()

    async def second_incarnation(first, at_finish):
        svc = await start_service(service_id="history", retention_hours=1.0)
        try:
            assert svc.recovered_jobs == 0
            # The restart compacted the journal: a header, then one line a job.
            journal = svc.store._journal.path.read_bytes().splitlines()
            assert len(journal) == 1 + HISTORY_JOBS
            assert await read_back(svc.port, first) == at_finish
            _, metrics = await http(svc.port, "GET", "/metrics")
            assert metrics["jobs"] == {"done": HISTORY_JOBS}
            late = svc.run_retention_pass(now=time.time() + 7200.0)
            assert late["journals_deleted"] == HISTORY_JOBS
        finally:
            await svc.stop()

    asyncio.run(second_incarnation(*asyncio.run(first_incarnation())))
