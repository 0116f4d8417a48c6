"""``border-control`` command-line interface.

Subcommands:

* ``report`` — regenerate every table and figure (paper vs. measured).
* ``run`` — simulate one (workload, configuration) pair and print stats.
* ``tables`` — print Tables 1-3 only (no simulation).
* ``fig4|fig5|fig6|fig7`` — regenerate a single figure.
* ``chaos`` — run a fault-injection campaign; exits nonzero on any
  confidentiality/integrity/termination invariant violation.
* ``recovery`` — run the violation-recovery campaign (epoch-fenced
  reset, kernel retry, CPU fallback, violation-storm circuit breaker);
  exits nonzero if any victim is lost, any stale-epoch traffic lands,
  or any unaffected tenant stalls.
* ``sweep`` — fan a figure grid out across a process pool, optionally
  verify bit-identity against serial execution, and write the
  ``BENCH_sweep.json`` perf snapshot.
* ``verify`` — run the lockstep verifier (abstract reference monitor vs
  the real Border Control stack): a Hypothesis stateful search plus an
  exhaustive small-model sweep; counterexamples are written as
  replayable poison-cell bundles and the exit status is nonzero.
* ``replay-cell`` — re-run a quarantined poison-cell repro bundle
  in-process (no pool, no retries) so the failure surfaces directly.
* ``serve`` — run the multi-tenant simulation job server
  (``repro.service``): sweep/chaos/recovery/verify jobs over HTTP with
  per-tenant quotas, durable crash-tolerant job state, and graceful
  drain on SIGTERM. ``--fleet-listen`` accepts fleet workers so campaign
  jobs fan out across hosts; ``--retention-hours`` garbage-collects
  terminal jobs' run journals. See ``docs/API.md``.
* ``worker`` — join a fleet (``repro.fleet``): connect to a
  coordinator started by ``sweep --fleet`` or ``serve --fleet-listen``
  and execute leased cells, journaling each into a private shard.
* ``workloads`` — list the available workload specs.

``report``, ``export``, ``fig4``-``fig7``, ``chaos``, ``recovery``, and
``sweep`` all take ``--workers N`` (``--workers 0`` = one per core).
They also take ``--run-id``/``--resume`` (journaled checkpoint/resume:
an interrupted run exits 130 with a resume hint, a failed cell exits 1
with one line per failure, and ``--resume <run-id>`` skips every
journal-complete cell) and — except
``sweep``/``chaos``/``recovery`` — take ``--allow-partial`` to render
explicit gaps for failed cells instead of aborting.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import SweepError
from repro.sim.config import GPUThreading, SafetyMode

__all__ = ["main"]


def _threading(name: str) -> GPUThreading:
    return GPUThreading.HIGHLY if name == "highly" else GPUThreading.MODERATELY


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--quick", action="store_true", help="4x shorter traces (fast smoke pass)"
    )
    parser.add_argument(
        "--workloads", nargs="*", default=None, help="subset of workloads"
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes (0 = one per core; default 1 = serial)",
    )


def _workers(args: argparse.Namespace) -> Optional[int]:
    workers = getattr(args, "workers", 1)
    return None if workers == 0 else workers


def _endpoint(parser: argparse.ArgumentParser, value: str, flag: str):
    """Parse a ``HOST:PORT`` (or bare ``PORT``) CLI value."""
    host, _, port = value.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        parser.error(f"{flag} expects HOST:PORT, got {value!r}")


def _add_journal(parser: argparse.ArgumentParser, partial: bool = True) -> None:
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="RUN_ID",
        help="journal this run under RUN_ID (enables a later --resume); "
        "fails if that journal already exists",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume a journaled run: cells the journal records as "
        "complete are rehydrated instead of re-executed",
    )
    if partial:
        parser.add_argument(
            "--allow-partial",
            action="store_true",
            help="degrade gracefully: render explicit gap markers for "
            "failed cells instead of aborting the whole run",
        )


def _open_journal(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """The run journal implied by --run-id/--resume (None if neither)."""
    run_id = getattr(args, "run_id", None)
    resume = getattr(args, "resume", None)
    if run_id and resume:
        parser.error("--run-id and --resume are mutually exclusive")
    if not run_id and not resume:
        return None
    from repro.journal import RunJournal

    try:
        if resume:
            return RunJournal.open(resume, create=False)
        return RunJournal.create(run_id)
    except (FileExistsError, FileNotFoundError) as exc:
        parser.error(str(exc))


def _interrupted(journal) -> int:
    """Exit path for Ctrl-C / SIGTERM: print the resume hint, exit 130."""
    if journal is not None:
        print(
            f"\ninterrupted; completed cells are journaled — resume with "
            f"--resume {journal.run_id}",
            file=sys.stderr,
        )
    else:
        print("\ninterrupted (no journal; rerun with --run-id to make "
              "runs resumable)", file=sys.stderr)
    return 130


def _cells_failed(exc: SweepError, journal) -> int:
    """Exit path for failed campaign cells: one line per failure, exit 1."""
    for failure in exc.failures:
        print(f"FAIL {failure.splitlines()[0]}", file=sys.stderr)
    if journal is not None:
        print(f"completed cells are journaled — rerun the failed ones with "
              f"--resume {journal.run_id}", file=sys.stderr)
    return 1


def _run_sweep_command(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    ops_scale: float,
    journal=None,
) -> int:
    """``sweep``: parallel grid fan-out + bench snapshot (+ verification)."""
    from repro import sweep

    grids = list(args.grid or ["fig4"])
    unknown = [g for g in grids if g not in sweep.GRID_NAMES + ("all",)]
    if unknown:
        parser.error(
            f"unknown grid(s) {unknown}; choose from {list(sweep.GRID_NAMES)}"
        )
    grids, cells = sweep.grid_union(
        grids,
        threading=None if args.gpu == "both" else _threading(args.gpu),
        workloads=args.workloads,
        seed=args.seed,
        ops_scale=ops_scale,
    )

    def progress(done: int, total: int, label: str, error: Optional[str]) -> None:
        status = "FAIL" if error else "ok"
        print(f"  [{done}/{total}] {label} {status}", file=sys.stderr)

    coordinator = None
    if getattr(args, "fleet", None):
        from repro.fleet import FleetCoordinator

        host, port = _endpoint(parser, args.fleet, "--fleet")
        coordinator = FleetCoordinator(
            host=host,
            port=port,
            wait_seconds=args.fleet_wait,
            min_workers=args.fleet_min_workers,
            log=lambda message: print(message, file=sys.stderr, flush=True),
        ).start()
        print(
            f"fleet coordinator on {coordinator.host}:{coordinator.port} — "
            f"join with: border-control worker --connect "
            f"{coordinator.host}:{coordinator.port}",
            file=sys.stderr,
        )

    workers = _workers(args)
    try:
        report = sweep.run_sweep(
            cells,
            workers=workers,
            progress=progress,
            journal=journal,
            fleet=coordinator,
        )
    finally:
        if coordinator is not None:
            coordinator.shutdown_fleet()
            coordinator.stop()
    if journal is not None and report.resumed_cells:
        print(
            f"resumed {report.resumed_cells} cell(s) from journal "
            f"{journal.run_id}",
            file=sys.stderr,
        )

    warm_report = None
    if args.bench_repeat:
        print("repeat pass (warm caches) ...", file=sys.stderr)
        warm_report = sweep.run_sweep(cells, workers=workers, progress=progress)

    serial_wall = None
    verified: Optional[bool] = None
    mismatches: List[str] = []
    if args.verify:
        print("verifying against serial execution ...", file=sys.stderr)
        serial_report, mismatches = sweep.verify_identical(cells, report)
        serial_wall = serial_report.wall_seconds
        verified = not mismatches

    payload = sweep.write_bench(
        args.bench_out,
        report,
        grids,
        serial_wall_seconds=serial_wall,
        verified_identical=verified,
        warm_report=warm_report,
        extra={
            "seed": args.seed,
            "quick": args.quick,
            "run_id": journal.run_id if journal is not None else None,
        },
    )
    if args.json:
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        if warm_report is not None:
            print(
                f"warm repeat: {warm_report.wall_seconds:.2f}s wall, "
                f"{warm_report.cache_hit_rate:.0%} cache hits"
            )
        if serial_wall is not None and report.wall_seconds > 0:
            if payload["speedup"] is not None:
                print(
                    f"serial reference: {serial_wall:.2f}s, measured speedup "
                    f"{payload['speedup']:.2f}x "
                    f"({payload['speedup_per_worker']:.2f}x per worker)"
                )
            else:
                print(
                    f"serial reference: {serial_wall:.2f}s; not a parallel "
                    f"speedup measurement: {payload['parallel_invalid_reason']}"
                )
        print(f"bench snapshot -> {args.bench_out}")
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    if mismatches:
        print(
            f"serial/parallel verification FAILED ({len(mismatches)} mismatches)",
            file=sys.stderr,
        )
        return 1
    if args.min_cache_hit_rate is not None:
        gate = warm_report if warm_report is not None else report
        if gate.cache_hit_rate + 1e-9 < args.min_cache_hit_rate:
            print(
                f"cache hit rate {gate.cache_hit_rate:.2%} is below the "
                f"required {args.min_cache_hit_rate:.2%}",
                file=sys.stderr,
            )
            return 1
    return 0 if report.ok else 1


def _print_result(result) -> None:
    print(f"workload:            {result.workload}")
    print(f"configuration:       {result.safety.label} / {result.threading.label}")
    print(f"runtime:             {result.gpu_cycles:.0f} GPU cycles")
    print(f"memory ops:          {result.mem_ops}")
    print(f"L1 hit ratio:        {result.l1_hit_ratio:.3f}")
    print(f"L2 hit ratio:        {result.l2_hit_ratio:.3f}")
    print(f"border checks:       {result.border_checks}")
    print(f"checks per cycle:    {result.checks_per_cycle:.3f}")
    print(f"BCC miss ratio:      {result.bcc_miss_ratio:.5f}")
    print(f"DRAM bytes:          {result.dram_bytes}")
    print(f"DRAM utilization:    {result.dram_utilization:.3f}")
    print(f"violations:          {result.violations}")


def _serve(args: argparse.Namespace) -> int:
    """``serve``: run the asyncio job server until a signal drains it."""
    import asyncio

    from repro.journal import JournalLockedError
    from repro.service import ServiceConfig, TenantQuota, serve_until_complete

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        service_id=args.service_id,
        quota=TenantQuota(
            max_queued=args.max_queued,
            max_running=args.max_running,
            submit_rate=args.submit_rate,
            submit_burst=args.submit_burst,
        ),
        max_total_queued=args.max_total_queued,
        max_concurrent=args.max_concurrent,
        drain_grace_seconds=args.drain_grace,
        retention_hours=args.retention_hours,
        fleet_listen=args.fleet_listen,
        log=lambda message: print(message, file=sys.stderr, flush=True),
    )
    try:
        return asyncio.run(serve_until_complete(config))
    except JournalLockedError as exc:
        print(
            f"error: another replica already serves "
            f"service id {args.service_id!r}: {exc}",
            file=sys.stderr,
        )
        return 2


def _replay_cell(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    """``replay-cell``: re-run a poison bundle in-process, no safety net.

    The replay deliberately skips the supervised pool: a deterministic
    failure reproduces right here with a full traceback, which is the
    debugging artifact the quarantine existed to preserve.
    """
    import json

    from repro.supervisor import BUNDLE_SCHEMA

    try:
        with open(args.bundle) as fh:
            bundle = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read bundle {args.bundle!r}: {exc}")
    if bundle.get("schema") != BUNDLE_SCHEMA:
        parser.error(
            f"{args.bundle} is not a poison-cell bundle "
            f"(schema {bundle.get('schema')!r}, expected {BUNDLE_SCHEMA!r})"
        )
    kind = bundle.get("kind")
    print(
        f"replaying {kind} cell (quarantined after {bundle.get('attempts')} "
        f"attempt(s): {bundle.get('error', '?')})",
        file=sys.stderr,
    )

    if kind == "verify":
        from repro.verify import replay_counterexample

        outcome = replay_counterexample(bundle["cell"])
        if args.json:
            print(json.dumps(outcome, indent=2))
        else:
            cell = bundle["cell"]
            print(f"source:         {cell.get('source')}")
            print(f"ops:            {len(cell.get('ops', []))}")
            print(f"reproduced:     {outcome['reproduced']}")
            if outcome["error"]:
                print(f"at step:        {outcome['step']}")
                print(f"error:          {outcome['error']}")
        if outcome["reproduced"]:
            print("replay reproduced the lockstep violation", file=sys.stderr)
            return 1
        print("replay completed without error (failure did not reproduce)",
              file=sys.stderr)
        return 0

    from repro.sweep import campaign_kind

    try:
        campaign = campaign_kind(str(kind))
    except ValueError:
        parser.error(f"bundle kind {kind!r} is not replayable")
    cell = campaign.cell_of(bundle["cell"])
    result, _hit = campaign.split(campaign.cell_fn(campaign.task(cell, fresh=True)))
    # Chaos and recovery runs carry invariants; a sweep cell has none.
    failures = getattr(result, "invariant_failures", list)()
    if args.json:
        print(json.dumps(campaign.to_dict(result), indent=2))
    else:
        print(f"{campaign.name} cell {campaign.label_of(cell)}: "
              + (f"{len(failures)} invariant failure(s)" if failures else "ok"))
        for failure in failures:
            print(f"  FAIL {failure}")
    print("replay completed without error (failure did not reproduce)",
          file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="border-control",
        description="Border Control (MICRO 2015) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full paper-vs-measured report")
    _add_common(p_report)
    _add_workers(p_report)
    _add_journal(p_report)

    p_run = sub.add_parser("run", help="simulate one workload/configuration")
    p_run.add_argument("workload")
    p_run.add_argument(
        "--safety",
        choices=[m.value for m in SafetyMode],
        default=SafetyMode.BC_BCC.value,
    )
    p_run.add_argument("--gpu", choices=["highly", "moderately"], default="highly")
    p_run.add_argument("--large-pages", action="store_true",
                       help="back the footprint with 2 MB pages (§3.4.4)")
    p_run.add_argument("--json", action="store_true",
                       help="emit the result as JSON instead of text")
    _add_common(p_run)

    sub.add_parser("tables", help="print Tables 1-3")
    for fig in ("fig4", "fig5", "fig6", "fig7"):
        p = sub.add_parser(fig, help=f"regenerate {fig}")
        _add_common(p)
        _add_workers(p)
        _add_journal(p)
        if fig == "fig4":
            p.add_argument(
                "--gpu", choices=["highly", "moderately", "both"], default="both"
            )

    p_chaos = sub.add_parser(
        "chaos", help="fault-injection campaign with invariant report"
    )
    _add_common(p_chaos)
    p_chaos.add_argument(
        "--fault-types",
        nargs="*",
        default=None,
        metavar="KIND",
        help="subset of fault kinds (drop hang bit-flip dup-writeback "
        "delay ats-fault); default injects all but delay",
    )
    p_chaos.add_argument("--json", action="store_true",
                         help="emit the invariant report as JSON")
    _add_workers(p_chaos)
    _add_journal(p_chaos, partial=False)

    p_recovery = sub.add_parser(
        "recovery",
        help="violation-recovery campaign: epoch-fenced reset, retry, "
        "CPU fallback, storm circuit breaker",
    )
    _add_common(p_recovery)
    p_recovery.add_argument(
        "--scenarios",
        nargs="*",
        default=None,
        metavar="SCENARIO",
        help="subset of recovery scenarios (hang rogue-write reset-replay "
        "fallback storm); default runs all",
    )
    p_recovery.add_argument("--json", action="store_true",
                            help="emit the recovery report as JSON")
    _add_workers(p_recovery)
    _add_journal(p_recovery, partial=False)

    p_sweep = sub.add_parser(
        "sweep",
        help="parallel grid sweep with bench snapshot and serial verification",
    )
    _add_common(p_sweep)
    _add_workers(p_sweep)
    _add_journal(p_sweep, partial=False)
    p_sweep.add_argument(
        "--grid",
        nargs="*",
        default=["fig4"],
        metavar="GRID",
        help="grids to sweep: fig4 fig5 fig6 fig7 workloads all (default: fig4)",
    )
    p_sweep.add_argument(
        "--gpu", choices=["highly", "moderately", "both"], default="both",
        help="GPU configurations for grids that sweep threading",
    )
    p_sweep.add_argument(
        "--verify",
        action="store_true",
        help="re-run the grid serially (caches bypassed) and fail on any "
        "field-level mismatch with the parallel results",
    )
    p_sweep.add_argument(
        "--bench-out",
        default="BENCH_sweep.json",
        metavar="PATH",
        help="where to write the perf snapshot (default: BENCH_sweep.json)",
    )
    p_sweep.add_argument(
        "--bench-repeat",
        action="store_true",
        help="run the grid a second time against the caches the first "
        "pass populated; records cold vs warm wall times and the warm "
        "pass's cache hit rate in the bench snapshot",
    )
    p_sweep.add_argument(
        "--min-cache-hit-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="exit nonzero unless the (warm, with --bench-repeat) "
        "cache hit rate reaches RATE (e.g. 1.0); CI uses this to pin "
        "incremental caching",
    )
    p_sweep.add_argument("--json", action="store_true",
                         help="print the bench payload as JSON instead of text")
    p_sweep.add_argument(
        "--fleet", default=None, metavar="HOST:PORT",
        help="listen for fleet workers on HOST:PORT (port 0 = ephemeral) "
        "and fan cells out to them; cells the fleet cannot place fall "
        "back to the local pool",
    )
    p_sweep.add_argument(
        "--fleet-wait", type=float, default=10.0, metavar="SECONDS",
        help="how long to wait for the first workers before degrading to "
        "the local pool (default 10)",
    )
    p_sweep.add_argument(
        "--fleet-min-workers", type=int, default=1, metavar="N",
        help="workers to wait for before assigning leases (default 1)",
    )

    p_worker = sub.add_parser(
        "worker",
        help="join a fleet: execute leased sweep cells for a coordinator",
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (printed by `sweep --fleet` or "
        "`serve --fleet-listen`)",
    )
    p_worker.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="stable identity; journal shards and lease books key on it "
        "(default: <hostname>-<pid>)",
    )
    p_worker.add_argument(
        "--slots", type=int, default=0, metavar="N",
        help="cells this worker executes in parallel (0 = one per core)",
    )

    sub.add_parser("workloads", help="list workload specs")

    p_export = sub.add_parser("export", help="write CSV/JSON artifacts")
    p_export.add_argument("--out", default="results", help="output directory")
    _add_common(p_export)
    _add_workers(p_export)
    _add_journal(p_export)

    p_verify = sub.add_parser(
        "verify",
        help="lockstep verification: reference monitor vs the real stack",
    )
    p_verify.add_argument(
        "--profile",
        choices=["ci", "dev", "nightly"],
        default=None,
        help="Hypothesis settings profile (default: $HYPOTHESIS_PROFILE, "
        "else ci when $CI is set, else dev)",
    )
    p_verify.add_argument(
        "--max-examples", type=int, default=None, metavar="N",
        help="override the profile's Hypothesis example count",
    )
    p_verify.add_argument(
        "--steps", type=int, default=None, metavar="N",
        help="override the profile's stateful step count per example",
    )
    p_verify.add_argument(
        "--depth", type=int, default=3, metavar="D",
        help="small-model exhaustive sweep depth (default 3)",
    )
    p_verify.add_argument(
        "--skip-machine", action="store_true",
        help="skip the Hypothesis machine (runs without hypothesis installed)",
    )
    p_verify.add_argument(
        "--skip-smallmodel", action="store_true",
        help="skip the exhaustive small-model sweep",
    )
    p_verify.add_argument(
        "--bundle-dir", default="verify-bundles", metavar="DIR",
        help="where counterexample bundles are written (default: verify-bundles)",
    )
    p_verify.add_argument("--json", action="store_true",
                          help="emit the verification report as JSON")

    p_replay = sub.add_parser(
        "replay-cell",
        help="re-run a quarantined poison-cell repro bundle in-process",
    )
    p_replay.add_argument(
        "bundle", help="path to a poison-*.json bundle from the quarantine dir"
    )
    p_replay.add_argument("--json", action="store_true",
                          help="emit the replayed result as JSON")

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant simulation job server (repro.service)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7455,
        help="listen port (0 = ephemeral; default 7455)",
    )
    p_serve.add_argument(
        "--service-id", default="default",
        help="journal namespace; restarting with the same id recovers jobs",
    )
    p_serve.add_argument(
        "--max-concurrent", type=int, default=1,
        help="jobs executing at once (each may use its own worker pool)",
    )
    p_serve.add_argument(
        "--max-queued", type=int, default=8,
        help="per-tenant queued-job quota (excess is rejected with 429)",
    )
    p_serve.add_argument(
        "--max-running", type=int, default=2,
        help="per-tenant running-job quota (fair-share enforced)",
    )
    p_serve.add_argument(
        "--submit-rate", type=float, default=5.0,
        help="sustained submissions/second per tenant (token bucket)",
    )
    p_serve.add_argument(
        "--submit-burst", type=int, default=10,
        help="token-bucket burst size per tenant",
    )
    p_serve.add_argument(
        "--max-total-queued", type=int, default=64,
        help="global queue bound across all tenants",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=30.0,
        help="seconds running jobs get to finish after SIGTERM",
    )
    p_serve.add_argument(
        "--retention-hours", type=float, default=None, metavar="HOURS",
        help="delete terminal jobs' run journals (and fleet shards) this "
        "many hours after they finish (default: keep forever)",
    )
    p_serve.add_argument(
        "--fleet-listen", default=None, metavar="HOST:PORT",
        help="accept fleet workers here; campaign jobs then fan out across "
        "the fleet (join with: border-control worker --connect ...)",
    )

    args = parser.parse_args(argv)
    ops_scale = 0.25 if getattr(args, "quick", False) else 1.0
    journal = _open_journal(parser, args)

    try:
        return _dispatch(parser, args, ops_scale, journal)
    except KeyboardInterrupt:
        return _interrupted(journal)
    except SweepError as exc:
        return _cells_failed(exc, journal)
    finally:
        if journal is not None:
            journal.close()


def _dispatch(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    ops_scale: float,
    journal,
) -> int:
    if args.command == "report":
        from repro.analysis.report import full_report

        print(
            full_report(
                quick=args.quick,
                seed=args.seed,
                workloads=args.workloads,
                workers=_workers(args),
                allow_partial=args.allow_partial,
                journal=journal,
            )
        )
        return 0

    if args.command == "run":
        from repro.sim.runner import run_single
        from repro.workloads.registry import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(
                f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}"
            )
        result = run_single(
            args.workload,
            SafetyMode(args.safety),
            _threading(args.gpu),
            seed=args.seed,
            ops_scale=ops_scale,
            large_pages=args.large_pages,
        )
        if args.json:
            import json

            from repro.experiments.common import _result_to_dict

            print(json.dumps(_result_to_dict(result), indent=2))
            return 0
        _print_result(result)
        return 0

    if args.command == "tables":
        from repro.experiments import tables

        print(tables.table1())
        print()
        print(tables.table2())
        print()
        print(tables.table3())
        return 0

    if args.command == "fig4":
        from repro.experiments import fig4

        gpus = {
            "highly": [GPUThreading.HIGHLY],
            "moderately": [GPUThreading.MODERATELY],
            "both": [GPUThreading.HIGHLY, GPUThreading.MODERATELY],
        }[args.gpu]
        for threading in gpus:
            print(
                fig4.run(
                    threading,
                    workloads=args.workloads,
                    seed=args.seed,
                    ops_scale=ops_scale,
                    workers=_workers(args),
                    allow_partial=args.allow_partial,
                    journal=journal,
                ).render()
            )
            print()
        return 0

    if args.command in ("fig5", "fig6", "fig7"):
        from repro.experiments import fig5, fig6, fig7

        driver = {"fig5": fig5, "fig6": fig6, "fig7": fig7}[args.command]
        print(
            driver.run(
                workloads=args.workloads,
                seed=args.seed,
                ops_scale=ops_scale,
                workers=_workers(args),
                allow_partial=args.allow_partial,
                journal=journal,
            ).render()
        )
        return 0

    if args.command in ("chaos", "recovery"):
        campaign_args = dict(
            workloads=args.workloads,
            seed=args.seed,
            ops_scale=ops_scale,
            quick=args.quick,
            workers=_workers(args),
            journal=journal,
        )
        if args.command == "chaos":
            from repro.faults import FaultKind
            from repro.chaos import run_chaos_campaign

            try:
                kinds = [FaultKind(name) for name in args.fault_types or []]
            except ValueError as exc:
                parser.error(str(exc))
            report = run_chaos_campaign(kinds=kinds or None, **campaign_args)
        else:
            from repro.recovery import RECOVERY_SCENARIOS, run_recovery_campaign

            scenarios = args.scenarios or []
            unknown = [s for s in scenarios if s not in RECOVERY_SCENARIOS]
            if unknown:
                parser.error(
                    f"unknown recovery scenario(s) {unknown}; "
                    f"choose from {list(RECOVERY_SCENARIOS)}"
                )
            report = run_recovery_campaign(scenarios=scenarios or None, **campaign_args)
        if args.json:
            import json

            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0 if report.ok else 1

    if args.command == "sweep":
        return _run_sweep_command(parser, args, ops_scale, journal=journal)

    if args.command == "verify":
        from pathlib import Path

        from repro.verify.campaign import run_verify_campaign

        if args.skip_machine and args.skip_smallmodel:
            parser.error("--skip-machine and --skip-smallmodel leave nothing to run")
        report = run_verify_campaign(
            profile=args.profile,
            max_examples=args.max_examples,
            stateful_steps=args.steps,
            smallmodel_depth=args.depth,
            run_machine=not args.skip_machine,
            run_smallmodel=not args.skip_smallmodel,
            bundle_dir=Path(args.bundle_dir),
            log=lambda message: print(message, file=sys.stderr),
        )
        if args.json:
            import json

            print(json.dumps(report.to_dict(), indent=2))
        else:
            status = "PASSED" if report.passed else "FAILED"
            print(f"lockstep verification {status}")
            if report.machine_ran:
                print(f"  machine ({report.profile}): "
                      f"{'ok' if report.machine_passed else report.machine_error}")
            if report.smallmodel_ran:
                print(f"  smallmodel (depth {args.depth}): "
                      f"{'ok' if report.smallmodel_passed else report.smallmodel_error}")
            for bundle_path in report.bundles:
                print(f"  counterexample bundle -> {bundle_path}")
        return 0 if report.passed else 1

    if args.command == "export":
        from repro.analysis.export import export_all

        written = export_all(
            args.out,
            quick=args.quick,
            seed=args.seed,
            workloads=args.workloads,
            workers=_workers(args),
            allow_partial=args.allow_partial,
            journal=journal,
        )
        for name, path in written.items():
            print(f"{name:<8s} -> {path}")
        return 0

    if args.command == "replay-cell":
        return _replay_cell(parser, args)

    if args.command == "serve":
        return _serve(args)

    if args.command == "worker":
        from repro.fleet import FleetWorker

        host, port = _endpoint(parser, args.connect, "--connect")
        worker = FleetWorker(
            host,
            port,
            worker_id=args.worker_id,
            slots=args.slots or None,
            log=lambda message: print(message, file=sys.stderr, flush=True),
        )
        print(
            f"fleet worker {worker.worker_id} ({worker.slots} slot(s)) "
            f"connecting to {host}:{port}",
            file=sys.stderr,
        )
        return worker.run()

    if args.command == "workloads":
        from repro.workloads import WORKLOADS

        for name, spec in WORKLOADS.items():
            print(
                f"{name:<12s} {spec.description} "
                f"(footprint {spec.footprint_bytes // 2**20} MiB, "
                f"pattern {spec.pattern}, writes {spec.write_fraction:.0%})"
            )
        return 0

    parser.error(f"unknown command {args.command}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `border-control workloads | head`
        sys.exit(0)
