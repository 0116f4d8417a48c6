"""The adversary harness: the one place that knows what an escape is.

Border Control promises confidentiality and integrity for memory an
accelerator was never granted (paper §2). Chaos, recovery, the lockstep
verifier and Table 1 check that promise the same way: a
:class:`SecretPage` that no accelerator is ever granted, probed by an
:class:`EscapeTally` (a read that returns data is a confidentiality
escape, a write that commits an integrity escape), with the verdicts
worded by :func:`escape_failures`. The chaos and recovery supervisors
share :class:`ProgressWatchdog`, and their run records share one JSON
codec (:func:`record_to_dict` / :func:`record_from_dict`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Generator, List, Optional

from repro.core.permissions import Perm
from repro.errors import AcceleratorHangError
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT, PAGE_SIZE
from repro.osmodel.kernel import Kernel, ViolationPolicy
from repro.osmodel.process import Process

__all__ = [
    "SECRET",
    "SecretPage",
    "EscapeTally",
    "escape_failures",
    "ProgressWatchdog",
    "record_to_dict",
    "record_from_dict",
]

#: The 4 KB pattern planted in the secret page; any change is an
#: integrity escape.
SECRET = bytes(range(256)) * (PAGE_SIZE // 256)

#: What every probe write carries. Its bytes matter only if it escapes.
_FILL = b"\xee" * BLOCK_SIZE


class SecretPage:
    """One RW page of ``proc``, holding :data:`SECRET`. ``proc`` must never
    be granted to an accelerator, so the border has to refuse every
    device access to :attr:`paddr`."""

    def __init__(self, kernel: Kernel, proc: Process) -> None:
        self._phys = kernel.phys
        vaddr = kernel.mmap(proc, 1, Perm.RW)
        kernel.proc_write(proc, vaddr, SECRET)
        translation = proc.page_table.translate(vaddr)
        assert translation is not None
        self.ppn = translation.ppn
        self.paddr = self.ppn << PAGE_SHIFT

    def intact(self) -> bool:
        return self._phys.read(self.paddr, PAGE_SIZE) == SECRET


@dataclasses.dataclass
class EscapeTally:
    """Probes fired at a secret page and the escapes they found."""

    probes: int = 0
    conf: int = 0
    integ: int = 0

    def probe(self, port, paddr: int) -> Generator:
        """One block read, then one block write, at ``paddr`` through
        ``port`` (a simulation generator)."""
        self.probes += 1
        if (yield from port.access(paddr, BLOCK_SIZE, False)) is not None:
            self.conf += 1
        if (yield from port.access(paddr, BLOCK_SIZE, True, _FILL)) is not None:
            self.integ += 1

    def trusted_probe(self, kernel: Kernel, port, paddr: int) -> Generator:
        """:meth:`probe` as trusted test equipment, not a modeled adversary:
        its violations are logged (``ViolationPolicy.LOG_ONLY``), never
        sanctioned, so probing cannot quarantine a healthy accelerator."""
        saved = kernel.violation_policy
        kernel.violation_policy = ViolationPolicy.LOG_ONLY
        try:
            yield from self.probe(port, paddr)
        finally:
            kernel.violation_policy = saved


def escape_failures(
    conf: int, integ: int, secret_intact: bool, who: str
) -> List[str]:
    """A run's confidentiality and integrity verdicts, one line per broken
    promise (empty iff both held). ``who`` names the accesses' source."""
    failures: List[str] = []
    if conf:
        failures.append(f"confidentiality: {conf} {who} read(s) returned data")
    if integ:
        failures.append(f"integrity: {integ} {who} write(s) committed")
    if not secret_intact:
        failures.append("integrity: secret page bytes changed")
    return failures


class ProgressWatchdog:
    """Stall bookkeeping for a loop supervising one accelerator.

    The loop wakes on its own schedule, asks :meth:`fired` whether the
    wake-up is a fire, tries to recover, and tells :meth:`recovered`
    whether it could act. Progress, or a recovery that acts, resets the
    stall count; ``max_stalled_fires`` fires in a row that recovery could
    not act on raise :class:`~repro.errors.AcceleratorHangError`.
    """

    def __init__(self, accel_id: str, max_stalled_fires: int) -> None:
        self.accel_id = accel_id
        self.max_stalled_fires = max_stalled_fires
        self.fires = 0
        self._progress = -1
        self._stalled = 0

    def fired(self, progress: Optional[int] = None) -> bool:
        """Whether this wake-up is a fire: ``progress`` (the device's issued
        plus completed ops) has not moved since the last wake-up. A loop
        with no progress measure passes None, and every wake-up fires."""
        if progress is not None and progress != self._progress:
            self._progress = progress
            self._stalled = 0
            return False
        self.fires += 1
        return True

    def recovered(self, acted: bool) -> None:
        """Whether recovery could act on the last fire."""
        if acted:
            self._stalled = 0
            return
        self._stalled += 1
        if self._stalled >= self.max_stalled_fires:
            raise AcceleratorHangError(self.accel_id, self.fires)


def _lists(value):
    return [_lists(v) for v in value] if isinstance(value, (list, tuple)) else value


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def record_to_dict(run) -> Dict[str, object]:
    """Lossless JSON form of a chaos or recovery run record: each field
    under its name, tuples as lists, and the nested ``result`` through
    the result-cache codec."""
    from repro.experiments.common import _result_to_dict  # local: avoids cycle

    out = {f.name: _lists(getattr(run, f.name)) for f in dataclasses.fields(run)}
    out["result"] = _result_to_dict(run.result)
    return out


def record_from_dict(cls, data: Dict[str, object]):
    """Inverse of :func:`record_to_dict` for the record class ``cls``: every
    list becomes a tuple again, and a field an older entry lacks keeps its
    dataclass default."""
    from repro.experiments.common import _result_from_dict  # local: avoids cycle

    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {name: _tuples(value) for name, value in data.items() if name in names}
    kwargs["result"] = _result_from_dict(data["result"])  # type: ignore[arg-type]
    return cls(**kwargs)
