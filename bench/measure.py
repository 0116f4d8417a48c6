"""One measured phase of one workload, run in a fresh child process.

``run.py`` starts this script once per phase so that every phase begins
with a cold interpreter, empty trace memo and empty result cache::

    python bench/measure.py setup WORKLOAD
    python bench/measure.py run WORKLOAD --seed S --seconds R --min-items K
                            --phase {untraced,spans,profile} --work DIR --out FILE

``setup`` imports ``repro``, builds one ``System`` per configuration the
workload simulates and prints ``ready``; the parent times it from spawn.

``run`` runs one untimed warm-up item, then items ``0, 1, ...`` until
``--seconds`` have passed, at least ``--min-items`` are done and the
last set of cells is complete. It writes every item's wall time, the
host-speed reference time around it, and its results to ``--out``.
In-process workloads call ``run_single`` in a closed loop.
``service-jobs`` starts ``border-control serve`` and acts as its single
client. ``--phase spans`` installs the span wrappers of ``spans.py``,
and ``--phase profile`` runs the items' cells in process under cProfile.
"""

from __future__ import annotations

import argparse
import cProfile
import http.client
import json
import os
import pstats
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from spans import Spans, install_sim_spans, profile_shares, read_cell_log  # noqa: E402
from workloads import (  # noqa: E402
    JOB_WORKERS,
    RESUBMIT_EVERY,
    WORKLOADS,
    Workload,
    result_dict,
)

SERVICE_ID = "bench"
READY = re.compile(r" ready on http://[^:]+:(\d+)")
#: Every socket operation and every wait on the server gives up after this.
TIMEOUT = 60.0

#: The host-speed reference: a fixed pure-Python loop, and the seconds it
#: takes at full speed on the host the baseline was recorded on (a 2-vCPU
#: Xeon VM at 2.0 GHz, Python 3.11). See ``reference_seconds``.
REF_ITERATIONS = 60_000
REF_SECONDS = 0.0045


def reference_seconds() -> float:
    """How long the reference loop takes right now.

    The loop allocates nothing the garbage collector tracks and calls
    nothing in ``repro``, so only the host's current speed moves it.
    The benchmark's shared host slows down by up to 2x for seconds to
    minutes when other tenants are busy; timing this loop around every
    item lets ``run.py`` correct each item's time for that.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def stamp_speed(record: dict, before: float) -> float:
    """Store the reference time around ``record``'s request; the new 'before'."""
    after = reference_seconds()
    record["ref"] = (before + after) / 2
    return after


def child_env(work: Path) -> dict:
    """Environment that keeps the program's files inside ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(work / "cache"),
        TMPDIR=str(tmp),
    )
    return env


class Server:
    """One ``border-control serve`` subprocess, from spawn to drained exit."""

    def __init__(self, argv: List[str], env: dict) -> None:
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        self.lines: List[str] = []
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            if not self._ready.wait(TIMEOUT) or self.port is None:
                raise RuntimeError("server never logged its ready line:\n" + self.log())
            deadline = time.monotonic() + TIMEOUT
            while self.request("GET", "/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("/readyz never returned 200")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)
            match = READY.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._ready.set()
        self._ready.set()  # EOF: the server died before it was ready

    def log(self) -> str:
        return "".join(self.lines[-40:])

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT)

    def request(self, method: str, path: str, body=None):
        """One request on its own connection (the server closes each one)."""
        conn = self._connection()
        try:
            data = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def follow(self, job_id: str) -> dict:
        """Read ``/v1/jobs/<id>/events`` until the stream ends; the last event."""
        conn = self._connection()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            body = conn.getresponse().read().decode()
        finally:
            conn.close()
        events = [json.loads(line) for line in body.splitlines() if line.strip()]
        return events[-1] if events else {}

    def vm_hwm_kb(self) -> int:
        """Peak resident set of the server process (its pool children excluded)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=TIMEOUT)


def server_argv(traced_dir: Optional[Path] = None) -> List[str]:
    serve = ["serve", "--port", "0", "--service-id", SERVICE_ID,
             "--submit-rate", "1000", "--submit-burst", "1000"]
    if traced_dir is None:
        return [sys.executable, "-m", "repro.cli", *serve]
    return [sys.executable, str(BENCH / "serve_traced.py"), str(traced_dir), *serve]


def more_items(wl: Workload, args, done: int, start: float) -> bool:
    """Whether a run that has finished ``done`` items starts another."""
    if done >= args.max_items:
        return False
    return (done < args.min_items or done % wl.period != 0
            or time.perf_counter() - start < args.seconds)


# -- in-process items -----------------------------------------------------------


def run_in_process(wl: Workload, args) -> dict:
    """Closed loop of ``run_single`` calls over the items' cells."""
    spans = Spans()
    profiler = cProfile.Profile() if args.phase == "profile" else None
    if args.phase == "spans":
        install_sim_spans(spans)

    for cell in wl.item_cells(wl.warmup_seed(args.seed), 0, args.smoke):
        cell.run()
    spans.take()

    items = []
    start = time.perf_counter()
    ref = reference_seconds()
    index = 0
    while more_items(wl, args, index, start):
        record = {"index": index, "cells": [], "cell_walls": [], "spans": []}
        t_item = time.perf_counter()
        try:
            for cell in wl.item_cells(args.seed, index, args.smoke):
                t0 = time.perf_counter()
                if profiler is not None:
                    profiler.enable()
                try:
                    result = cell.run()
                finally:
                    if profiler is not None:
                        profiler.disable()
                record["cell_walls"].append(time.perf_counter() - t0)
                record["cells"].append(result_dict(result))
                record["spans"].append(spans.take())
        except Exception:  # noqa: BLE001 - a failed item is counted, not fatal
            record["error"] = traceback.format_exc(limit=6)
        record["wall"] = time.perf_counter() - t_item
        ref = stamp_speed(record, ref)
        items.append(record)
        index += 1
    out = {
        "items": items,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if profiler is not None:
        out["profile"] = profile_shares(pstats.Stats(profiler).stats, SRC)
    return out


# -- service-jobs: one closed-loop client ---------------------------------------


def run_job(server: Server, params: dict) -> dict:
    """Submit one sweep job, follow its events to the end, fetch its record."""
    body = {"tenant": "bench", "kind": "sweep", "params": params, "workers": JOB_WORKERS}
    t0 = time.perf_counter()
    status, out = server.request("POST", "/v1/jobs", body)
    submitted = time.perf_counter()
    if status != 201:
        return {"params": params, "error": f"submit returned {status}: {out}",
                "wall": submitted - t0, "http_errors": 1}
    job_id = out["job"]["id"]
    end = server.follow(job_id)
    t_end = time.time()
    wall = time.perf_counter() - t0
    status, out = server.request("GET", f"/v1/jobs/{job_id}")
    if status != 200:
        return {"params": params, "error": f"job fetch returned {status}",
                "wall": wall, "http_errors": 1}
    job = out["job"]
    result = job.get("result") or {}
    cells = result.get("cells") or []
    record = {
        "params": params,
        "wall": wall,
        "state": job["state"],
        "end_state": end.get("state"),
        "submit": submitted - t0,
        "queue": job["started"] - job["created"] if job["started"] else 0.0,
        "exec": job["finished"] - job["started"] if job["started"] else 0.0,
        "notify": t_end - job["finished"] if job["finished"] else 0.0,
        "resumed_cells": job["resumed_cells"],
        "cells": [cell["result"] for cell in cells],
        "cell_walls": [cell["wall_seconds"] for cell in cells if not cell["resumed"]],
        "cache_hits": sum(1 for cell in cells if cell["cache_hit"]),
        "supervisor": result.get("supervisor") or {},
        "http_errors": 0,
    }
    if job["state"] != "done" or end.get("state") != "done":
        record["error"] = f"job ended {job['state']}: {job.get('error')}"
    return record


def run_service(wl: Workload, args) -> dict:
    work = Path(args.work)
    traced = work / "spans" if args.phase == "spans" else None
    if traced is not None:
        traced.mkdir(parents=True, exist_ok=True)
    server = Server(server_argv(traced), child_env(work))
    try:
        warm = run_job(server, wl.job_params(wl.warmup_seed(args.seed), 0, args.smoke))
        if "error" in warm:
            raise RuntimeError(f"warm-up job failed: {warm['error']}")
        items, resubmits = [], []
        window_start = time.time()
        start = time.perf_counter()
        ref = reference_seconds()
        index = 0
        while more_items(wl, args, index, start):
            record = run_job(server, wl.job_params(args.seed, index, args.smoke))
            record["index"] = index
            ref = stamp_speed(record, ref)
            items.append(record)
            if index % RESUBMIT_EVERY == RESUBMIT_EVERY - 1:
                original = items[index - (RESUBMIT_EVERY - 1)]
                again = run_job(server, original["params"])
                again["of"] = original["index"]
                ref = stamp_speed(again, ref)
                resubmits.append(again)
            index += 1
        window_end = time.time()
        peak_rss_kb = server.vm_hwm_kb()
    finally:
        server.stop()
    out = {
        "items": items,
        "resubmits": resubmits,
        "window": [window_start, window_end],
        "peak_rss_kb": peak_rss_kb,
    }
    if server.proc.returncode != 0:
        out["server_error"] = f"server exited {server.proc.returncode}:\n{server.log()}"
    if traced is not None:
        host = traced / "host.json"
        out["host_spans"] = json.loads(host.read_text()) if host.exists() else []
        out["cell_log"] = read_cell_log(traced)
    return out


# -- entry point --------------------------------------------------------------------


def setup(wl: Workload) -> None:
    from repro.sim.config import GPUThreading, SafetyMode, SystemConfig
    from repro.sim.system import System

    for safety, threading_name in wl.configs():
        System(SystemConfig(safety=SafetyMode(safety), threading=GPUThreading(threading_name)))
    print("ready", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark phase")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-items", type=int, default=1)
    parser.add_argument("--max-items", type=int, default=10**9)
    parser.add_argument("--phase", choices=("untraced", "spans", "profile"),
                        default="untraced")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", default=".")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        setup(wl)
        return 0
    if wl.service and args.phase != "profile":
        out = run_service(wl, args)
    else:
        out = run_in_process(wl, args)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
