"""Exception hierarchy for the Border Control reproduction.

Hardware-visible error conditions (access violations, faults) are modeled
as events delivered to the OS, not exceptions; the exceptions here signal
*misuse of the library* or conditions the simulated OS raises to its
caller (e.g. a process touching an unmapped virtual address).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "MemoryError_",
    "UnmappedAddressError",
    "PageFault",
    "ProtectionFault",
    "AcceleratorDisabledError",
    "AcceleratorHangError",
    "BorderControlViolation",
    "BorderTimeoutError",
    "SimulationIncompleteError",
    "SweepError",
    "TransientCellError",
    "JournalLockedError",
    "JobCancelled",
    "FleetError",
]


class ReproError(Exception):
    """Base class for every library-specific exception."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent system configuration."""


class MemoryError_(ReproError):
    """Base for simulated-memory errors (named to avoid the builtin)."""


class UnmappedAddressError(MemoryError_):
    """A physical access outside any backed region of physical memory."""


class PageFault(MemoryError_):
    """A virtual access to an unmapped page (the OS may service it)."""

    def __init__(self, vaddr: int, write: bool = False) -> None:
        super().__init__(f"page fault at {vaddr:#x} ({'write' if write else 'read'})")
        self.vaddr = vaddr
        self.write = write


class ProtectionFault(MemoryError_):
    """A virtual access violating page-table permissions (CPU-side)."""

    def __init__(self, vaddr: int, write: bool = False) -> None:
        super().__init__(
            f"protection fault at {vaddr:#x} ({'write' if write else 'read'})"
        )
        self.vaddr = vaddr
        self.write = write


class AcceleratorDisabledError(ReproError):
    """Work was submitted to an accelerator the OS has disabled."""


class BorderTimeoutError(ReproError):
    """A border-crossing request exhausted its timeout/retry budget.

    Raised only when the :class:`~repro.core.border_port.BorderControlPort`
    runs with ``strict_timeouts``; otherwise the request is counted and
    reported as failed (``None``) so the simulation can keep making
    forward progress under fault injection.
    """

    def __init__(self, addr: int, write: bool, attempts: int) -> None:
        kind = "write" if write else "read"
        super().__init__(
            f"border {kind} of {addr:#x} timed out after {attempts} attempt(s)"
        )
        self.addr = addr
        self.write = write
        self.attempts = attempts


class AcceleratorHangError(ReproError):
    """An accelerator hang survived every watchdog recovery attempt.

    The chaos harness raises this when quarantining the accelerator and
    releasing injected memory-path hangs both failed to let the kernel
    terminate — i.e. the resilience layer itself is broken.
    """

    def __init__(self, accel_id: str, watchdog_fires: int) -> None:
        super().__init__(
            f"accelerator {accel_id!r} still hung after "
            f"{watchdog_fires} watchdog fire(s)"
        )
        self.accel_id = accel_id
        self.watchdog_fires = watchdog_fires


class SimulationIncompleteError(ReproError):
    """A simulation ended without its kernel completing.

    Raised at the source instead of letting a silent zero-tick
    :class:`~repro.sim.runner.RunResult` flow into downstream metrics
    (where it would only surface later as a baffling
    ``ValueError: baseline has zero runtime``).
    """

    def __init__(self, workload: str, detail: str) -> None:
        super().__init__(
            f"kernel for workload {workload!r} never completed: {detail}"
        )
        self.workload = workload
        self.detail = detail


class TransientCellError(ReproError):
    """A host-side cell failure worth retrying (I/O hiccup, OOM kill, ...).

    The sweep supervisor retries cells failing with this type using
    bounded exponential backoff; any other exception type is treated as
    potentially deterministic and quarantined as *poison* once the same
    failure repeats (see :mod:`repro.supervisor`).
    """


class SweepError(ReproError):
    """One or more cells of a campaign (sweep, chaos or recovery) failed.

    ``failures`` holds one ``"<cell label>: <error>"`` string per failed
    cell. ``outcomes`` (when provided) is every cell's
    :class:`repro.sweep.CellOutcome` in grid order — the *successful*
    ones included, each with its kind's result object as ``result`` —
    so callers can salvage partial results instead of losing the run.
    """

    def __init__(self, failures, outcomes=None) -> None:
        failures = list(failures)
        summary = "; ".join(failures[:3])
        if len(failures) > 3:
            summary += f"; … and {len(failures) - 3} more"
        super().__init__(f"{len(failures)} sweep cell(s) failed: {summary}")
        self.failures = failures
        self.outcomes = list(outcomes) if outcomes is not None else None


class JournalLockedError(ReproError):
    """Another live process holds the run journal for this run id.

    Run journals are single-writer: two writers interleaving appends to
    one journal would corrupt the last-wins replay semantics. The lock
    is advisory (``flock``) and held for the journal's open lifetime,
    so it vanishes with the holding process — a SIGKILLed server never
    leaves a stale lock behind.

    ``holder_alive`` reports whether the PID recorded in the ``.lock``
    sidecar is a live process: ``True`` (it is), ``False`` (it is not —
    the lock is held by some *other* live process, e.g. an inherited
    file descriptor, because ``flock`` itself is kernel-released on
    death), or ``None`` (no PID could be parsed).
    """

    def __init__(
        self, run_id: str, path, holder: str = "", holder_alive=None
    ) -> None:
        if holder:
            if holder_alive is True:
                liveness = ", alive"
            elif holder_alive is False:
                liveness = (
                    ", no longer alive — the flock is held by an "
                    "unidentified live process (inherited fd?)"
                )
            else:
                liveness = ""
            detail = f" (held by {holder}{liveness})"
        else:
            detail = ""
        super().__init__(
            f"journal for run {run_id!r} is locked by another live "
            f"process{detail}: {path}"
        )
        self.run_id = run_id
        self.path = path
        self.holder = holder
        self.holder_alive = holder_alive


class FleetError(ReproError):
    """A fleet campaign failed at the coordination layer (not a cell).

    Raised for protocol violations and unrecoverable coordinator state;
    ordinary worker death, partitions, and dropped frames are *handled*
    (lease expiry + reassignment), not raised.
    """


class JobCancelled(ReproError):
    """A campaign was cancelled cooperatively between cells.

    Raised by :meth:`repro.sweep.SweepReport.raise_failures` — and so
    by ``run_chaos_campaign`` and ``run_recovery_campaign`` — when their
    ``should_abort`` callback turned true (job cancellation, server
    drain, or a per-job deadline) before every cell ran. Cells completed
    before the abort are already journaled, so a resumed run
    re-executes only the remainder.
    """

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason


class BorderControlViolation(ReproError):
    """Raised when a blocked border crossing is surfaced synchronously.

    In hardware the violation is an exception delivered to the OS and the
    offending request is dropped; the functional model mirrors that, but
    test and attack harnesses can also observe the violation as a Python
    exception through :class:`repro.core.border_control.BorderControl`
    strict mode.
    """

    def __init__(self, paddr: int, write: bool, accel_id: str) -> None:
        kind = "write" if write else "read"
        super().__init__(
            f"border control blocked {kind} of physical address {paddr:#x} "
            f"from accelerator {accel_id!r}"
        )
        self.paddr = paddr
        self.write = write
        self.accel_id = accel_id
