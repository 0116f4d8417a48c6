"""Unit tests for the service layer's seams: wire, jobs, admission.

Each module is exercised in isolation — no sockets, no subprocesses.
The end-to-end HTTP tests live in ``test_service_http.py``.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.service.admission import (
    REJECT_DRAINING,
    REJECT_QUEUE_FULL,
    REJECT_RATE,
    REJECT_SERVER_FULL,
    AdmissionController,
    AdmissionError,
    TenantQuota,
    TokenBucket,
)
from repro.service.jobs import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_QUEUED,
    STATE_RUNNING,
    InvalidTransition,
    Job,
    JobSpec,
    JobStore,
)
from repro.service.retention import sweep_retention
from repro.service.wire import (
    HttpRequest,
    JsonlStream,
    WireError,
    encode_response,
    read_request,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


# ---------------------------------------------------------------------------
# wire
# ---------------------------------------------------------------------------


def parse(raw: bytes, **kwargs):
    """Run read_request against an in-memory stream."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


class TestWire:
    def test_parses_request_line_headers_and_body(self):
        body = json.dumps({"kind": "sweep"}).encode()
        raw = (
            b"POST /v1/jobs?x=1&y=%20z HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"X-Tenant: alice\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        req = parse(raw)
        assert req.method == "POST"
        assert req.path == "/v1/jobs"
        assert req.query == {"x": "1", "y": " z"}
        assert req.headers["x-tenant"] == "alice"
        assert req.json() == {"kind": "sweep"}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_malformed_request_line_raises_400(self):
        with pytest.raises(WireError) as exc:
            parse(b"GARBAGE\r\n\r\n")
        assert exc.value.status == 400

    def test_non_http_protocol_rejected(self):
        with pytest.raises(WireError):
            parse(b"GET / SPDY/3\r\n\r\n")

    def test_oversized_body_raises_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(WireError) as exc:
            parse(raw, max_body=10)
        assert exc.value.status == 413

    def test_truncated_body_raises_400(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
        with pytest.raises(WireError) as exc:
            parse(raw)
        assert exc.value.status == 400

    def test_chunked_request_body_rejected(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(WireError):
            parse(raw)

    def test_bad_json_body_is_wire_error(self):
        req = HttpRequest(method="POST", target="/", path="/", body=b"{nope")
        with pytest.raises(WireError) as exc:
            req.json()
        assert exc.value.status == 400

    def test_encode_response_roundtrips(self):
        raw = encode_response(429, b'{"error":1}', extra_headers={"Retry-After": "1"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Content-Length: 11" in head
        assert b"Retry-After: 1" in head
        assert b"Connection: close" in head
        assert body == b'{"error":1}'

    def test_jsonl_stream_emits_chunked_frames(self):
        class FakeWriter:
            def __init__(self):
                self.data = b""

            def write(self, b):
                self.data += b

            async def drain(self):
                pass

        async def go():
            w = FakeWriter()
            stream = JsonlStream(w)
            await stream.start()
            await stream.send({"event": "state", "state": "queued"})
            await stream.close()
            return w.data

        data = asyncio.run(go())
        head, _, rest = data.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        assert b"application/jsonl" in head
        # One sized chunk plus the zero terminator.
        size_hex, _, tail = rest.partition(b"\r\n")
        payload = tail[: int(size_hex, 16)]
        assert json.loads(payload) == {"event": "state", "state": "queued"}
        assert rest.endswith(b"0\r\n\r\n")


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def spec(**over) -> JobSpec:
    base = dict(kind="sweep", params={"grids": ["fig5"], "seed": 1})
    base.update(over)
    return JobSpec(**base)


class TestJobSpec:
    def test_job_key_depends_only_on_work_content(self):
        a = spec(priority=0, workers=1)
        b = spec(priority=9, workers=4, deadline_seconds=5.0, allow_partial=True)
        assert a.job_key() == b.job_key()
        assert a.run_id() == f"job-{a.job_key()}"

    def test_job_key_changes_with_params(self):
        assert spec().job_key() != spec(params={"grids": ["fig6"]}).job_key()
        assert spec().job_key() != spec(kind="chaos").job_key()

    def test_validate_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            JobSpec(kind="nonsense").validate()
        with pytest.raises(ValueError):
            spec(workers=0).validate()
        with pytest.raises(ValueError):
            spec(deadline_seconds=-1).validate()

    def test_roundtrip(self):
        s = spec(priority=3, allow_partial=True)
        assert JobSpec.from_dict(s.to_dict()) == s


class TestJobStateMachine:
    def test_happy_path(self):
        job = Job(id="j1", tenant="t", spec=spec())
        job.transition(STATE_QUEUED)
        job.transition(STATE_RUNNING)
        assert job.started is not None
        job.transition(STATE_DONE)
        assert job.terminal and job.finished is not None

    def test_illegal_transition_raises(self):
        job = Job(id="j1", tenant="t", spec=spec())
        with pytest.raises(InvalidTransition):
            job.transition(STATE_RUNNING)  # must queue first
        job.transition(STATE_QUEUED)
        job.transition(STATE_RUNNING)
        job.transition(STATE_DONE)
        with pytest.raises(InvalidTransition):
            job.transition(STATE_CANCELLED)  # terminal states are final

    def test_crash_recovery_requeue_is_legal(self):
        job = Job(id="j1", tenant="t", spec=spec())
        job.transition(STATE_QUEUED)
        job.transition(STATE_RUNNING)
        job.transition(STATE_QUEUED)  # restarted server re-queues
        assert job.state == STATE_QUEUED


class TestJobStore:
    def test_persist_and_replay(self, tmp_path):
        store = JobStore("t1", directory=tmp_path)
        job = store.create("alice", spec())
        job.transition(STATE_QUEUED)
        store.persist(job)
        store.close()

        reopened = JobStore("t1", directory=tmp_path)
        got = reopened.get(job.id)
        assert got is not None and got.state == STATE_QUEUED
        assert got.tenant == "alice"
        reopened.close()

    def test_recover_requeues_non_terminal_jobs(self, tmp_path):
        store = JobStore("t2", directory=tmp_path)
        running = store.create("a", spec())
        running.transition(STATE_QUEUED)
        running.transition(STATE_RUNNING)
        store.persist(running)
        finished = store.create("a", spec(params={"grids": ["fig6"]}))
        finished.transition(STATE_QUEUED)
        finished.transition(STATE_RUNNING)
        finished.transition(STATE_DONE)
        store.persist(finished)
        store.close()

        reopened = JobStore("t2", directory=tmp_path)
        recovered = reopened.recover()
        assert [j.id for j in recovered] == [running.id]
        assert reopened.get(running.id).state == STATE_QUEUED
        assert reopened.get(running.id).recovered
        assert reopened.get(finished.id).state == STATE_DONE
        reopened.close()

    def test_reopen_compacts_to_one_line_per_job(self, tmp_path):
        """A restarted store rewrites its journal to the header plus each
        job's last entry, and every job reads back as before."""
        store = JobStore("t5", directory=tmp_path)
        jobs = [store.create("a", spec(params={"seed": seed})) for seed in range(3)]
        for job in jobs:
            for state in (STATE_QUEUED, STATE_RUNNING, STATE_DONE):
                job.transition(state)
                store.persist(job, events=[{"event": "end", "job": job.id}])
        live = store.create("a", spec(params={"seed": 9}))
        ids = [job.id for job in jobs] + [live.id]
        before = [(store.record(i), store.events(i)) for i in ids]
        store.close()
        path = tmp_path / "service-t5.jsonl"
        assert len(path.read_bytes().splitlines()) == 1 + 4 * 3 + 1

        inodes = []
        for _ in range(2):  # a compacted journal reopens as it is
            reopened = JobStore("t5", directory=tmp_path)
            inodes.append(path.stat().st_ino)
            lines = path.read_bytes().splitlines()
            assert len(lines) == 1 + len(ids)
            assert "key" not in json.loads(lines[0])
            assert [(reopened.record(i), reopened.events(i)) for i in ids] == before
            reopened.close()
        assert inodes[0] == inodes[1]  # nothing to drop: not rewritten

        reopened = JobStore("t5", directory=tmp_path)
        live = reopened.get(live.id)
        live.transition(STATE_QUEUED)
        reopened.persist(live)  # appends after the compacted entries
        assert reopened.get(live.id).state == STATE_QUEUED
        assert reopened.get(ids[0]).state == STATE_DONE
        reopened.close()

    def test_second_replica_is_locked_out(self, tmp_path):
        from repro.journal import JournalLockedError

        store = JobStore("t3", directory=tmp_path)
        with pytest.raises(JournalLockedError):
            JobStore("t3", directory=tmp_path)
        store.close()
        # After a clean close the id is free again.
        JobStore("t3", directory=tmp_path).close()

    def test_active_by_key_and_counts(self, tmp_path):
        store = JobStore("t4", directory=tmp_path)
        job = store.create("a", spec())
        assert store.active_by_key(job.job_key) is job
        assert store.counts("a") == {"queued": 1, "running": 0}
        job.transition(STATE_QUEUED)
        job.transition(STATE_RUNNING)
        store.persist(job)
        assert store.counts("a") == {"queued": 0, "running": 1}
        job.transition(STATE_DONE)
        store.persist(job)
        assert store.active_by_key(job.job_key) is None
        assert store.totals() == {"done": 1}
        store.close()


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()  # burst exhausted
        clock.now += 1.0
        assert bucket.try_take()  # one token refilled
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        clock.now += 100.0
        assert bucket.tokens <= 3 or True  # lazily refilled on take
        for _ in range(3):
            assert bucket.try_take()
        assert not bucket.try_take()


class TestAdmission:
    def make(self, **over):
        clock = FakeClock()
        quota = TenantQuota(
            max_queued=over.pop("max_queued", 2),
            max_running=2,
            submit_rate=over.pop("submit_rate", 100.0),
            submit_burst=over.pop("submit_burst", 100),
        )
        ctrl = AdmissionController(
            quota=quota,
            max_total_queued=over.pop("max_total_queued", 10),
            clock=clock,
        )
        return ctrl, clock

    def test_admits_within_quota(self):
        ctrl, _ = self.make()
        ctrl.admit("a", tenant_queued=0, total_queued=0)
        assert ctrl.counters()["a"]["admitted"] == 1

    def test_tenant_queue_quota_rejected_explicitly(self):
        ctrl, _ = self.make(max_queued=2)
        with pytest.raises(AdmissionError) as exc:
            ctrl.admit("a", tenant_queued=2, total_queued=2)
        assert exc.value.code == REJECT_QUEUE_FULL
        assert exc.value.status == 429
        assert ctrl.counters()["a"]["rejected"] == {REJECT_QUEUE_FULL: 1}

    def test_one_tenant_full_does_not_block_another(self):
        ctrl, _ = self.make(max_queued=2)
        with pytest.raises(AdmissionError):
            ctrl.admit("a", tenant_queued=2, total_queued=2)
        ctrl.admit("b", tenant_queued=0, total_queued=2)  # must not raise
        assert ctrl.counters()["b"]["admitted"] == 1

    def test_global_bound(self):
        ctrl, _ = self.make(max_total_queued=3)
        with pytest.raises(AdmissionError) as exc:
            ctrl.admit("a", tenant_queued=1, total_queued=3)
        assert exc.value.code == REJECT_SERVER_FULL

    def test_rate_limit(self):
        ctrl, clock = self.make(submit_rate=1.0, submit_burst=1)
        ctrl.admit("a", tenant_queued=0, total_queued=0)
        with pytest.raises(AdmissionError) as exc:
            ctrl.admit("a", tenant_queued=0, total_queued=0)
        assert exc.value.code == REJECT_RATE
        clock.now += 1.5
        ctrl.admit("a", tenant_queued=0, total_queued=0)  # refilled

    def test_draining_rejects_with_503(self):
        ctrl, _ = self.make()
        with pytest.raises(AdmissionError) as exc:
            ctrl.admit("a", tenant_queued=0, total_queued=0, draining=True)
        assert exc.value.code == REJECT_DRAINING
        assert exc.value.status == 503


# ---------------------------------------------------------------------------
# retention
# ---------------------------------------------------------------------------


class TestRetention:
    """GC of job run journals + fleet shards (``sweep_retention``)."""

    WINDOW = 3600.0
    NOW = 1_000_000.0

    def _terminal_job(self, jid, finished, **spec_over):
        job = Job(id=jid, tenant="t", spec=spec(**spec_over))
        job.transition(STATE_QUEUED)
        job.transition(STATE_RUNNING)
        job.transition(STATE_DONE)
        job.finished = finished
        return job

    def _materialize(self, jdir, run_id, shards=("w1",)):
        from repro.journal import JournalShard, RunJournal

        RunJournal.create(run_id, jdir).close()
        for worker in shards:
            with JournalShard.open(run_id, worker, jdir) as shard:
                shard.record("cell", {"ok": True})

    def test_expired_terminal_job_loses_journal_lock_and_shards(self, tmp_path):
        old = self._terminal_job("j1", self.NOW - 2 * self.WINDOW)
        self._materialize(tmp_path, old.run_id, shards=("w1", "w2"))
        assert (tmp_path / f"{old.run_id}.jsonl.lock").exists()

        counters = sweep_retention(
            [old], self.WINDOW, directory=tmp_path, now=self.NOW
        )
        assert counters["journals_deleted"] == 1
        assert counters["shards_deleted"] == 2
        assert counters["bytes_reclaimed"] > 0
        assert list(tmp_path.iterdir()) == []  # lock sidecar went too

    def test_young_terminal_and_live_jobs_are_protected(self, tmp_path):
        young = self._terminal_job("j1", self.NOW - 60.0)
        live = Job(id="j2", tenant="t", spec=spec(params={"seed": 2}))
        live.transition(STATE_QUEUED)
        self._materialize(tmp_path, young.run_id)
        self._materialize(tmp_path, live.run_id)

        counters = sweep_retention(
            [young, live], self.WINDOW, directory=tmp_path, now=self.NOW
        )
        assert counters["journals_deleted"] == 0
        assert counters["shards_deleted"] == 0
        assert (tmp_path / f"{young.run_id}.jsonl").exists()
        assert (tmp_path / f"{live.run_id}.jsonl").exists()

    def test_live_resubmission_shields_expired_twin(self, tmp_path):
        """An idempotent resubmission mid-flight shares the run id of an
        expired terminal job — the journal must survive for the resume."""
        expired = self._terminal_job("j1", self.NOW - 2 * self.WINDOW)
        twin = Job(id="j2", tenant="t", spec=spec())  # same content → same run id
        twin.transition(STATE_QUEUED)
        assert twin.run_id == expired.run_id
        self._materialize(tmp_path, expired.run_id)

        counters = sweep_retention(
            [expired, twin], self.WINDOW, directory=tmp_path, now=self.NOW
        )
        assert counters["journals_deleted"] == 0
        assert (tmp_path / f"{expired.run_id}.jsonl").exists()

    def test_orphan_shard_deleted_only_once_old(self, tmp_path):
        from repro.journal import JournalShard

        tmp_path.mkdir(exist_ok=True)
        with JournalShard.open("job-gone", "w1", tmp_path) as shard:
            shard.record("cell", {"ok": True})
        fresh = tmp_path / "job-gone.shard-w1.jsonl"
        # Fresh orphan (a worker mid-restart may still append): kept.
        os.utime(fresh, (self.NOW - 10, self.NOW - 10))
        counters = sweep_retention([], self.WINDOW, directory=tmp_path, now=self.NOW)
        assert counters["orphan_shards_deleted"] == 0
        assert fresh.exists()
        # Past the window it is garbage.
        os.utime(fresh, (self.NOW - 2 * self.WINDOW,) * 2)
        counters = sweep_retention([], self.WINDOW, directory=tmp_path, now=self.NOW)
        assert counters["orphan_shards_deleted"] == 1
        assert not fresh.exists()

    def test_pass_is_idempotent(self, tmp_path):
        old = self._terminal_job("j1", self.NOW - 2 * self.WINDOW)
        self._materialize(tmp_path, old.run_id)
        sweep_retention([old], self.WINDOW, directory=tmp_path, now=self.NOW)
        again = sweep_retention([old], self.WINDOW, directory=tmp_path, now=self.NOW)
        assert again == {
            "journals_deleted": 0,
            "shards_deleted": 0,
            "orphan_shards_deleted": 0,
            "bytes_reclaimed": 0,
        }
