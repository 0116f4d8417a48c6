#!/usr/bin/env python
"""CI smoke test for ``repro.fleet``: the chaos gate, end to end.

One coordinator, two workers, a seeded storm of network faults — and
the full crash-tolerance contract checked on the way out:

1. **Chaos campaign.** Boot an in-process coordinator with a seeded
   fault plan (frame drop/delay/duplication plus bounded symmetric
   partitions on every worker link) and telemetry to a JSONL artifact.
   Connect a healthy worker through the real ``repro.cli worker`` entry
   point and a *doomed* worker wedged to never finish a cell, then run
   a journaled fleet sweep over the fig4 reference grid. Once the
   doomed worker reports a running cell, SIGKILL it — no warning, no
   cleanup.
   The campaign must still terminate with every cell ok (``mode ==
   fleet``), the death must be detected and every orphaned lease
   reassigned, at least one partition must actually have fired, and
   the merged-journal accounting must show zero lost cells.
2. **Zero recompute on restart.** Wipe the result cache, keeping only
   the journals (as a restarted coordinator host would see the world),
   and re-run the same sweep without a fleet. Every cell must
   rehydrate from the journal — ``resumed_cells`` equals the grid
   size, nothing re-executes.
3. **Bit-identity.** Recompute the grid serially with all caches
   bypassed (``verify_identical``) and require zero field-level
   mismatches against the fleet-computed results.
4. **Chaos and recovery on the fleet.** After the sweep, and before
   the fleet shuts down, run the ``chaos --quick --seed 7`` and
   ``recovery --quick --seed 11`` grids through ``run_campaign`` on the
   same fleet, under the same fault plan. Each must run on the fleet
   (``mode == fleet``) and its report's ``to_dict()`` must equal the
   serial run's.

After each leg the smoke prints the coordinator's running totals of
partitioned and injected frames and of ``foreign_results``: the
RESULTs it dropped because no live campaign granted their lease with
that cell's key.

The telemetry JSONL (campaign/lease/result/worker-dead events) is left
in the working directory for CI to upload as an artifact.

Usage: python tools/fleet_smoke.py [--keep-dir]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from interrupted_sweep_smoke import fail, journal_completed  # noqa: E402

SEED = 20260808
RUN_ID = "fleet-smoke"
OPS_SCALE = 0.05
TELEMETRY = Path("FLEET_telemetry.jsonl").resolve()
CONNECT_TIMEOUT = 30.0
CAMPAIGN_TIMEOUT = 300.0
#: The CI chaos and recovery smoke grids: ``<kind> --quick --seed <seed>``.
CAMPAIGN_LEGS = (("chaos", 7), ("recovery", 11))
QUICK_SCALE = 0.25  # the CLI's --quick ops scale

#: A worker that accepts leases but never completes one: its only exit
#: from the campaign is the SIGKILL below, which is the point. The wedge
#: is a module-level function so its pool process can unpickle it.
WEDGED_WORKER = """
import time
import repro.fleet.worker as fw
from repro.fleet import FleetWorker
def wedge(fn, task):
    time.sleep(3600)
fw.traced_call = wedge
FleetWorker('127.0.0.1', {port}, worker_id='doomed', slots=1).run()
"""


def wait_until(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    fail(f"timed out after {timeout:.0f}s waiting for {what}")


def killpg(proc: subprocess.Popen, sig: int) -> None:
    """Signal the worker's whole process group: a SIGKILL that reaps the
    worker but orphans its forked pool children would leak sleepers that
    hold the CI step's stdout pipe open forever."""
    try:
        os.killpg(proc.pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        killpg(proc, signal.SIGTERM)
        try:
            proc.wait(10.0)
        except subprocess.TimeoutExpired:
            killpg(proc, signal.SIGKILL)
            proc.wait()
    killpg(proc, signal.SIGKILL)  # any stragglers in the group


def fault_counts(stats) -> str:
    """The fleet totals each leg prints: partitioned and injected
    frames, and the foreign RESULTs the coordinator dropped."""
    injected = sum(
        stats.get(name, 0)
        for name in ("frames_dropped", "frames_delayed", "frames_duplicated")
    )
    return (
        f"partitioned={stats.get('frames_partitioned', 0)} "
        f"injected={injected} foreign_results={stats.get('foreign_results', 0)}"
    )


def campaign_leg(name: str, seed: int, coordinator) -> None:
    """Run one quick chaos or recovery grid on the fleet, then serially;
    fail unless it ran on the fleet and the two reports are equal."""
    from repro import sweep
    from repro.chaos import ChaosReport, chaos_grid, run_chaos_campaign
    from repro.recovery import RecoveryReport, recovery_grid, run_recovery_campaign

    grid, report_of, run_serial = {
        "chaos": (chaos_grid, ChaosReport, run_chaos_campaign),
        "recovery": (recovery_grid, RecoveryReport, run_recovery_campaign),
    }[name]
    args = dict(seed=seed, ops_scale=QUICK_SCALE, quick=True)
    report = sweep.run_campaign(
        grid(**args), sweep.campaign_kind(name), workers=2, fleet=coordinator
    )
    if report.mode != "fleet":
        fail(f"{name} leg: expected fleet execution, got mode={report.mode!r}")
    if not report.ok:
        fail(f"{name} leg lost cells: {report.failures()}")
    placed = report_of(seed, report.results).to_dict()
    if placed != run_serial(**args).to_dict():
        fail(f"{name} leg: the fleet report differs from the serial one")
    print(f"{name} leg OK: {len(report.outcomes)} cells on the fleet, "
          f"report equals serial, {fault_counts(report.fleet or {})}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep-dir", action="store_true",
        help="keep the scratch cache dir for inspection",
    )
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(prefix="fleet-smoke-")
    cache_dir = Path(scratch) / "cache"
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    TELEMETRY.unlink(missing_ok=True)

    from repro import sweep
    from repro.fleet import FleetCoordinator, chaos_plan
    from repro.journal import RunJournal, journal_dir

    cells = sweep.dedup_cells(
        sweep.grid_cells(
            "fig4",
            threading="moderately-threaded",
            workloads=["bfs", "hotspot"],
            seed=SEED,
            ops_scale=OPS_SCALE,
        )
    )
    total = len(cells)
    print(f"fig4 reference grid: {total} cells at ops_scale={OPS_SCALE}")

    plan = chaos_plan(
        SEED,
        ["steady", "doomed"],
        drop_rate=0.10,
        delay_rate=0.10,
        delay_ms=10,
        dup_rate=0.10,
        partition_rate=0.10,
        partition_frames=4,
        max_partitions=2,
    )
    coordinator = FleetCoordinator(
        heartbeat_seconds=0.25,
        lease_seconds=15.0,
        wait_seconds=30.0,
        fault_plan=plan,
        telemetry_path=TELEMETRY,
    ).start()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in sys.path if p)
    connect = f"127.0.0.1:{coordinator.port}"
    steady = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--connect", connect, "--worker-id", "steady", "--slots", "2",
        ],
        env=env,
        start_new_session=True,
    )
    doomed = subprocess.Popen(
        [sys.executable, "-c", WEDGED_WORKER.format(port=coordinator.port)],
        env=env,
        start_new_session=True,
    )

    report_box = {}
    try:
        # Both workers must be in before the campaign starts, or the
        # doomed one could connect after everything is already done.
        wait_until(
            lambda: coordinator.stats_snapshot().get("workers_connected", 0) >= 2,
            CONNECT_TIMEOUT,
            "both workers to connect",
        )

        def run_campaign() -> None:
            journal = RunJournal.create(RUN_ID)
            try:
                report_box["report"] = sweep.run_sweep(
                    cells, workers=2, journal=journal, fleet=coordinator
                )
            except BaseException as exc:  # surfaced after the join
                report_box["error"] = exc
            finally:
                journal.close()

        campaign = threading.Thread(target=run_campaign, daemon=True)
        campaign.start()

        def doomed_running() -> bool:
            worker = coordinator._workers.get("doomed")
            return worker is not None and worker.reported_running > 0

        wait_until(
            doomed_running,
            CONNECT_TIMEOUT,
            "the doomed worker to report a running cell",
        )
        # The doomed worker is wedged on a cell, so the campaign cannot
        # finish while it lives: this kill is always mid-sweep.
        killpg(doomed, signal.SIGKILL)
        doomed.wait(10.0)
        print("doomed worker SIGKILLed mid-sweep")

        campaign.join(CAMPAIGN_TIMEOUT)
        if campaign.is_alive():
            fail(f"campaign did not terminate within {CAMPAIGN_TIMEOUT:.0f}s")
        if "error" not in report_box:
            for name, seed in CAMPAIGN_LEGS:
                campaign_leg(name, seed, coordinator)
    finally:
        coordinator.shutdown_fleet()
        coordinator.stop()
        reap(steady)
        reap(doomed)

    if "error" in report_box:
        fail(f"fleet sweep raised: {report_box['error']!r}")
    report = report_box["report"]

    # -- act 1 assertions: termination, containment, fault coverage ----
    if report.mode != "fleet":
        fail(f"expected fleet execution, got mode={report.mode!r}")
    failures = [out.cell.label for out in report.outcomes if not out.ok]
    if failures:
        fail(f"campaign lost cells: {failures}")
    stats = report.fleet or {}
    for counter in ("dead_workers", "expired_leases", "reassigned"):
        if stats.get(counter, 0) < 1:
            fail(f"worker kill not accounted: {counter}={stats.get(counter)}")
    if stats.get("frames_partitioned", 0) < 1:
        fail(f"seeded partition never fired: {stats}")
    injected = sum(
        stats.get(name, 0)
        for name in ("frames_dropped", "frames_delayed", "frames_duplicated")
    )
    if injected < 1:
        fail(f"fault plan injected nothing: {stats}")
    journal_path = journal_dir() / f"{RUN_ID}.jsonl"
    checkpointed = journal_completed(journal_path)
    if checkpointed != total:
        fail(
            f"merged-journal accounting lost cells: "
            f"{checkpointed}/{total} checkpointed"
        )
    print(
        f"fleet sweep OK: {total} cells, "
        f"dead_workers={stats['dead_workers']} "
        f"reassigned={stats['reassigned']} {fault_counts(stats)}"
    )

    # -- act 2: restart resumes with zero re-execution -----------------
    for entry in cache_dir.glob("*.json"):
        entry.unlink()
    journal = RunJournal.open(RUN_ID)
    try:
        resumed_report = sweep.run_sweep(cells, workers=1, journal=journal)
    finally:
        journal.close()
    not_resumed = [
        out.cell.label for out in resumed_report.outcomes if not out.resumed
    ]
    if not_resumed:
        fail(f"restart re-executed cells: {not_resumed}")
    print(f"restart OK: {total}/{total} cells resumed from journal, zero rework")

    # -- act 3: bit-identity against serial execution ------------------
    _, mismatches = sweep.verify_identical(cells, report)
    if mismatches:
        fail("fleet results are not serial-identical:\n" + "\n".join(mismatches))
    print("bit-identity OK: fleet results match serial execution")

    # -- telemetry artifact --------------------------------------------
    kinds = set()
    for line in TELEMETRY.read_text().splitlines():
        try:
            kinds.add(json.loads(line)["event"])
        except (ValueError, KeyError):
            fail(f"malformed telemetry line: {line!r}")
    expected = {"campaign-start", "lease-granted", "result", "campaign-end"}
    if not expected <= kinds:
        fail(f"telemetry missing events: {sorted(expected - kinds)}")
    print(f"telemetry artifact OK: {TELEMETRY.name} events={sorted(kinds)}")

    if args.keep_dir:
        print(f"scratch dir kept: {scratch}")
    else:
        shutil.rmtree(scratch, ignore_errors=True)
    print("fleet smoke PASSED")


if __name__ == "__main__":
    main()
