#!/usr/bin/env python
"""CI smoke test for ``repro.service``: kill-restart resume, multi-tenant
admission, and graceful drain — against the real server over real HTTP.

Three acts, one scratch cache dir:

1. **Kill/restart with zero recompute.** Boot the server, submit a
   journaled two-worker sweep job, SIGKILL the server mid-sweep (no
   warning, no cleanup — the advisory journal locks must die with the
   process, and its pool children within 10 s). Wipe the result cache,
   keeping only the journals, and restart with the same service id. The
   restarted server must recover the job, resume every checkpointed
   cell from the journal (``resumed_cells`` equals the pre-kill
   checkpoint count, attempts stay 1), and finish the rest. A job that
   finished before the kill must return the same ``GET /v1/jobs/<id>``
   record and the same ``/events`` list after the restart as before.
2. **Serial parity.** Re-run the same grid serially, in a fresh cache,
   in a fresh process, and require bit-identical per-cell results to
   what the service returned.
3. **Tenants and drain.** With per-tenant quotas on, tenant A saturates
   its queue: its overflow submission is explicitly rejected (429,
   ``tenant-queue-full``) while tenant B's submission is admitted.
   After cancelling A's backlog, SIGTERM must flip ``/healthz`` to
   ``draining``, reject new submissions with 503, let B's running job
   finish, and exit 0 with none of its pool children left alive.

Usage: python tools/service_smoke.py [--keep-dir]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from interrupted_sweep_smoke import fail, journal_completed  # noqa: E402

SERVICE_ID = "smoke"
TERMINAL = {"done", "partial", "failed", "cancelled"}
MIN_CHECKPOINTS = 2
POLL = 0.1
TIMEOUT = 420.0

#: Worker processes each pooled job asks for.
WORKERS = 2
#: How long pool children may outlive a SIGKILLed server.
ORPHAN_SECONDS = 10.0

#: The job killed and resumed in act 1 (and re-run serially in act 2).
RESUME_PARAMS = {
    "grids": ["fig4"],
    "workloads": ["bfs", "hotspot"],
    "seed": 1234,
    "ops_scale": 0.25,
}

#: A job that finishes before act 1's kill (its cells differ from the
#: killed job's, so they leave that job nothing to hit in the cache).
FINISHED_PARAMS = {
    "grids": ["fig4"],
    "workloads": ["bfs"],
    "seed": 7,
    "ops_scale": 0.05,
}

SERVER_ARGS = [
    sys.executable,
    "-m",
    "repro.cli",
    "serve",
    "--port",
    "0",
    "--service-id",
    SERVICE_ID,
    "--max-queued",
    "2",
    "--submit-burst",
    "50",
]


class Server:
    """One server subprocess; parses its port, drains its stderr."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            SERVER_ARGS,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_lines: list = []
        self.port = None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            self.stderr_lines.append(line)
            match = re.search(r" ready on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                break
        if self.port is None:
            self.proc.kill()
            fail(
                "server never reported ready; stderr:\n"
                + "".join(self.stderr_lines)
            )
        self._drainer = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drainer.start()

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_lines.append(line)

    def request(self, method: str, path: str, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def events(self, job_id: str) -> list:
        """The job's ``/events`` stream, read to its end."""
        url = f"http://127.0.0.1:{self.port}/v1/jobs/{job_id}/events"
        with urllib.request.urlopen(url, timeout=TIMEOUT) as resp:
            return [json.loads(line) for line in resp.read().splitlines() if line]

    def wait_state(self, job_id: str, states, timeout: float = TIMEOUT):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, out = self.request("GET", f"/v1/jobs/{job_id}")
            if out["job"]["state"] in states:
                return out["job"]
            time.sleep(POLL)
        fail(f"job {job_id} never reached {states}")


def children_of(pid: int) -> list:
    """Live child processes of ``pid``, read from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # The command name is parenthesised and may hold spaces.
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == pid and state not in ("Z", "X"):
            children.append(int(entry))
    return children


def alive(pids: list) -> list:
    """The processes of ``pids`` that still run (zombies do not)."""
    running = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except (OSError, ValueError):
            continue
        if state not in ("Z", "X"):
            running.append(pid)
    return running


def submit(
    server: Server, tenant: str, params: dict, expect: int = 201, workers: int = 1
):
    status, out = server.request(
        "POST",
        "/v1/jobs",
        {"tenant": tenant, "kind": "sweep", "params": params, "workers": workers},
    )
    if status != expect:
        fail(f"submit for {tenant} returned {status} (expected {expect}): {out}")
    return out


def act1_kill_and_resume(env: dict, cache_dir: Path) -> list:
    """SIGKILL mid-sweep, restart, assert zero recompute. Returns cells."""
    server = Server(env)
    finished_id = submit(server, "alice", FINISHED_PARAMS)["job"]["id"]
    finished = server.wait_state(finished_id, TERMINAL)
    if finished["state"] != "done":
        fail(f"job {finished_id} ended {finished['state']}: {finished['error']}")
    before_kill = (finished, server.events(finished_id))

    out = submit(server, "alice", RESUME_PARAMS, workers=WORKERS)
    job_id = out["job"]["id"]
    run_id = out["job"]["run_id"]
    journal_path = cache_dir / "journals" / f"{run_id}.jsonl"

    deadline = time.monotonic() + TIMEOUT
    while time.monotonic() < deadline:
        if journal_completed(journal_path) >= MIN_CHECKPOINTS:
            break
        if server.proc.poll() is not None:
            fail("server died before the job checkpointed anything")
        time.sleep(POLL)
    else:
        fail(f"no {MIN_CHECKPOINTS} checkpoints within {TIMEOUT:.0f}s")

    pool = children_of(server.proc.pid)
    if not pool:
        fail("server has no pool children in the middle of a pooled sweep")
    server.proc.send_signal(signal.SIGKILL)  # no warning, no cleanup
    server.proc.wait(timeout=30)
    checkpointed = journal_completed(journal_path)
    print(f"act 1: SIGKILLed server after {checkpointed} checkpointed cell(s)")
    deadline = time.monotonic() + ORPHAN_SECONDS
    while alive(pool) and time.monotonic() < deadline:
        time.sleep(POLL)
    if alive(pool):
        fail(f"pool children {alive(pool)} outlived the SIGKILLed server")
    print(f"act 1: all {len(pool)} pool children exited with the server")

    # Wipe cached results but keep the journals: resumed cells below can
    # only be served by journal rehydration.
    for entry in cache_dir.glob("*.json"):
        entry.unlink()

    server = Server(env)
    after_restart = (
        server.request("GET", f"/v1/jobs/{finished_id}")[1]["job"],
        server.events(finished_id),
    )
    if after_restart != before_kill:
        fail(
            f"job {finished_id}, finished before the kill, reads back "
            f"differently after the restart:\nbefore: {before_kill}\n"
            f"after:  {after_restart}"
        )
    print(
        f"act 1: job {finished_id}, finished before the kill, returns the "
        f"same record and {len(after_restart[1])} events after the restart"
    )
    if not any("recovered job" in line for line in server.stderr_lines):
        fail(
            "restarted server did not report recovering the job; stderr:\n"
            + "".join(server.stderr_lines)
        )
    job = server.wait_state(job_id, TERMINAL)
    if job["state"] != "done":
        fail(f"recovered job ended {job['state']}: {job['error']}")
    if not job["recovered"]:
        fail("finished job not flagged as recovered")
    if job["resumed_cells"] != checkpointed:
        fail(
            f"zero-recompute violated: {checkpointed} cell(s) were "
            f"checkpointed before the kill but only "
            f"{job['resumed_cells']} resumed from the journal"
        )
    cells = job["result"]["cells"]
    bad = [c["label"] for c in cells if c["resumed"] and c["attempts"] != 1]
    if bad:
        fail(f"resumed cells were re-executed: {bad}")
    if any(not c["ok"] for c in cells):
        fail("recovered job has failed cells")
    status, metrics = server.request("GET", "/metrics")
    if metrics["tenants"]["alice"]["terminal"]["resumed_cells"] != checkpointed:
        fail("/metrics does not report the resumed cells")
    print(
        f"act 1: recovered job finished, {job['resumed_cells']}/{len(cells)} "
        "cell(s) from journal, zero recompute"
    )
    server.proc.send_signal(signal.SIGTERM)
    if server.proc.wait(timeout=60) != 0:
        fail(f"server exited {server.proc.returncode} after drain")
    return cells


def act2_serial_parity(scratch: Path, service_cells: list) -> None:
    """Same grid, serial, fresh cache, fresh process: bit-identical?"""
    script = (
        "import json, sys\n"
        "from repro import sweep\n"
        "from repro.experiments.common import _result_to_dict\n"
        "params = json.loads(sys.argv[1])\n"
        "cells = sweep.dedup_cells([c for g in params['grids'] for c in\n"
        "    sweep.grid_cells(g, workloads=params['workloads'],\n"
        "                     seed=params['seed'], ops_scale=params['ops_scale'])])\n"
        "report = sweep.run_sweep(cells, workers=1)\n"
        "report.raise_failures()\n"
        "print(json.dumps({o.cell.key(): _result_to_dict(o.result)\n"
        "                  for o in report.outcomes}))\n"
    )
    env = dict(os.environ, REPRO_CACHE_DIR=str(scratch / "serial-cache"))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(RESUME_PARAMS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    if proc.returncode != 0:
        fail(f"serial reference sweep failed:\n{proc.stderr}")
    serial = json.loads(proc.stdout)
    mismatches = []
    for cell in service_cells:
        want = serial.get(cell["key"])
        got = cell["result"]
        if json.dumps(want, sort_keys=True) != json.dumps(got, sort_keys=True):
            mismatches.append(cell["label"])
    if len(serial) != len(service_cells):
        fail(
            f"cell count mismatch: serial ran {len(serial)}, "
            f"service returned {len(service_cells)}"
        )
    if mismatches:
        fail(f"service vs serial results differ: {mismatches}")
    print(f"act 2: {len(service_cells)} cell(s) bit-identical to serial run")


def act3_tenants_and_drain(env: dict) -> None:
    server = Server(env)
    tiny = {"grids": ["fig5"], "workloads": ["backprop"], "ops_scale": 0.05}

    # Tenant A occupies the executor, then saturates its queue quota (2).
    slow = submit(server, "alice", dict(RESUME_PARAMS, seed=777), workers=WORKERS)
    server.wait_state(slow["job"]["id"], {"running"})
    q1 = submit(server, "alice", dict(tiny, seed=778))
    q2 = submit(server, "alice", dict(tiny, seed=779))
    status, rejected = server.request(
        "POST",
        "/v1/jobs",
        {"tenant": "alice", "kind": "sweep", "params": dict(tiny, seed=780)},
    )
    if status != 429 or rejected.get("error") != "tenant-queue-full":
        fail(
            f"tenant A's overflow was not explicitly rejected: "
            f"{status} {rejected}"
        )
    # Tenant B is admitted despite A's saturation.
    bob = submit(server, "bob", {
        "grids": ["fig5"],
        "workloads": ["backprop", "bfs"],
        "seed": 781,
        "ops_scale": 0.25,
    }, workers=WORKERS)
    _, metrics = server.request("GET", "/metrics")
    alice = metrics["tenants"]["alice"]["admission"]
    if alice["rejected"].get("tenant-queue-full") != 1:
        fail(f"/metrics does not show A's rejection: {alice}")
    print("act 3: tenant A overflow rejected (429), tenant B admitted")

    # Clear A's backlog so B's job runs next (A never starves B).
    for job in (slow, q1, q2):
        status, _ = server.request("DELETE", f"/v1/jobs/{job['job']['id']}")
        if status != 202:
            fail(f"cancel of {job['job']['id']} returned {status}")
    server.wait_state(slow["job"]["id"], {"cancelled"})
    server.wait_state(bob["job"]["id"], {"running", "done"})

    # SIGTERM while B's job runs: healthz flips to draining, submissions
    # are rejected with an explicit 503, the job finishes, exit 0.
    deadline = time.monotonic() + 30.0
    while not (pool := children_of(server.proc.pid)):
        if time.monotonic() > deadline:
            fail("server started no pool children for B's pooled job")
        time.sleep(POLL)
    server.proc.send_signal(signal.SIGTERM)
    saw_draining = False
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and not saw_draining:
        try:
            _, health = server.request("GET", "/healthz")
        except (ConnectionError, OSError):
            break  # already exited: B's job beat our poll
        saw_draining = health["status"] == "draining"
        time.sleep(0.02)
    if not saw_draining:
        fail("healthz never reported draining after SIGTERM")
    status, out = server.request(
        "POST",
        "/v1/jobs",
        {"tenant": "carol", "kind": "sweep", "params": dict(tiny, seed=9)},
    )
    if status != 503 or out.get("error") != "draining":
        fail(f"submission during drain not rejected with 503: {status} {out}")
    if server.proc.wait(timeout=TIMEOUT) != 0:
        fail(f"drained server exited {server.proc.returncode}")
    if alive(pool):
        fail(f"drained server left pool children {alive(pool)} behind")
    print(
        "act 3: drain flipped healthz, rejected late submit, exited 0 "
        "with no pool children left"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep-dir", action="store_true",
        help="keep the scratch cache dir for inspection",
    )
    args = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    cache_dir = scratch / "cache"
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env.setdefault("PYTHONPATH", "src")

    cells = act1_kill_and_resume(env, cache_dir)
    act2_serial_parity(scratch, cells)
    act3_tenants_and_drain(env)

    if args.keep_dir:
        print(f"scratch dir kept: {scratch}")
    else:
        import shutil

        shutil.rmtree(scratch, ignore_errors=True)
    print("service smoke PASSED")


if __name__ == "__main__":
    main()
