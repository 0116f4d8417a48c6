"""Buggy and malicious accelerators — the threat model made executable.

These are the adversaries of paper §2.1: accelerators that are formally
attached to a process (so they hold a legitimate sandbox) but misbehave
in the ways the paper enumerates:

* :class:`MaliciousEngine` — a hardware trojan with "arbitrary logic and
  direct access to physical memory": it fabricates physical addresses
  (never obtained from the ATS) and tries to read secrets or corrupt OS
  state.
* :class:`StaleTLBAccelerator` — the TLB-shootdown bug: it keeps and uses
  translations after the OS invalidated them (the AMD Phenom TLB
  erratum class of bugs, §1).
* :class:`FlushIgnoringGPU` — a GPU that ignores the OS's cache-flush
  request on downgrades; the paper argues this is safe because the dirty
  writebacks are caught at the border later (§3.2.4).
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, Optional, Tuple

from repro.accel.base import AcceleratorBase
from repro.accel.gpu import GPU
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT
from repro.mem.port import MemoryPort
from repro.sim.engine import Engine
from repro.vm.tlb import TLBEntry

__all__ = [
    "MaliciousEngine",
    "StaleTLBAccelerator",
    "FlushIgnoringGPU",
    "WildWriteAccelerator",
]


class MaliciousEngine(AcceleratorBase):
    """A trojaned accelerator issuing raw physical-address requests.

    It is wired directly to whatever sits at the border (a
    BorderControlPort in a protected system, or the bare memory
    controller in an unprotected one) — exactly the Fig. 1b topology the
    paper warns about.
    """

    def __init__(self, engine: Engine, border: MemoryPort, accel_id: str = "trojan0") -> None:
        super().__init__(accel_id)
        self.engine = engine
        self.border = border
        self.attempts = 0
        self.successes = 0

    def read_phys(self, paddr: int, size: int = BLOCK_SIZE) -> Optional[bytes]:
        """Attempt to read an arbitrary physical address."""
        self.attempts += 1
        result = self.engine.run_process(
            self.border.access(paddr, size, False), name="trojan-read"
        )
        if result is not None:
            self.successes += 1
        return result

    def write_phys(self, paddr: int, data: bytes) -> bool:
        """Attempt to write an arbitrary physical address."""
        self.attempts += 1
        result = self.engine.run_process(
            self.border.access(paddr, len(data), True, data), name="trojan-write"
        )
        ok = result is not None
        if ok:
            self.successes += 1
        return ok

    def scan_for_nonzero(
        self, start_paddr: int, end_paddr: int, step: int = BLOCK_SIZE
    ) -> Dict[int, bytes]:
        """Exfiltration sweep: read every block in a physical range."""
        found: Dict[int, bytes] = {}
        for paddr in range(start_paddr, end_paddr, step):
            data = self.read_phys(paddr, min(step, end_paddr - paddr))
            if data and any(data):
                found[paddr] = data
        return found


class StaleTLBAccelerator(AcceleratorBase):
    """An accelerator whose TLB-shootdown implementation is broken.

    It translates legitimately through the ATS, but *ignores* shootdowns:
    after the OS remaps or unmaps a page, it keeps issuing requests with
    the stale physical address. Border Control must block those requests
    once the downgrade has revoked the page.
    """

    def __init__(
        self,
        engine: Engine,
        ats,
        border: MemoryPort,
        accel_id: str = "buggy0",
    ) -> None:
        super().__init__(accel_id)
        self.engine = engine
        self.ats = ats
        self.border = border
        self._stale_tlb: Dict[Tuple[int, int], TLBEntry] = {}
        self.ignored_shootdowns = 0

    def shootdown(self, asid: int, vpn: Optional[int] = None) -> None:
        # The bug: do nothing. Stale entries live on.
        self.ignored_shootdowns += 1

    def access_virtual(
        self, asid: int, vaddr: int, write: bool, data: Optional[bytes] = None
    ) -> Optional[bytes]:
        """Translate (caching forever) and access via physical address."""
        vpn = vaddr >> PAGE_SHIFT
        entry = self._stale_tlb.get((asid, vpn))
        if entry is None:
            entry = self.engine.run_process(
                self.ats.translate(self.accel_id, asid, vpn), name="buggy-xlate"
            )
            if entry is None:
                return None
            self._stale_tlb[(asid, vpn)] = entry
        paddr = (entry.ppn << PAGE_SHIFT) | (vaddr & 0xFFF)
        size = len(data) if (write and data is not None) else BLOCK_SIZE
        return self.engine.run_process(
            self.border.access(paddr, size, write, data), name="buggy-access"
        )


class WildWriteAccelerator(AcceleratorBase):
    """An accelerator with an address-calculation bug.

    It translates legitimately through the ATS, but a fraction of its
    stores land at a *perturbed* physical page — the classic "wild write"
    that corrupts OS structures or other processes' data and crashes
    systems (paper §2.1). Under Border Control the wild stores hit pages
    the Protection Table never granted and are blocked.
    """

    def __init__(
        self,
        engine: Engine,
        ats,
        border: MemoryPort,
        wild_period: int = 3,  # every Nth store goes wild
        wild_page_delta: int = 17,
        accel_id: str = "wild0",
    ) -> None:
        super().__init__(accel_id)
        self.engine = engine
        self.ats = ats
        self.border = border
        self.wild_period = max(1, wild_period)
        self.wild_page_delta = wild_page_delta
        self._store_count = 0
        self.wild_stores = 0
        self.wild_stores_landed = 0

    def store_virtual(self, asid: int, vaddr: int, data: bytes) -> Optional[bool]:
        """Issue one store; returns True if it committed, None if blocked."""
        vpn = vaddr >> PAGE_SHIFT
        entry = self.engine.run_process(
            self.ats.translate(self.accel_id, asid, vpn), name="wild-xlate"
        )
        if entry is None:
            return None
        paddr = (entry.ppn << PAGE_SHIFT) | (vaddr & 0xFFF)
        self._store_count += 1
        if self._store_count % self.wild_period == 0:
            # The bug: a corrupted physical page number.
            paddr += self.wild_page_delta << PAGE_SHIFT
            self.wild_stores += 1
            committed = self.engine.run_process(
                self.border.access(paddr, len(data), True, data), name="wild-store"
            )
            if committed is not None:
                self.wild_stores_landed += 1
            return committed is not None
        committed = self.engine.run_process(
            self.border.access(paddr, len(data), True, data), name="store"
        )
        return committed is not None


class FlushIgnoringGPU(GPU):
    """A GPU that silently drops the OS's flush requests.

    Safety consequence (paper §3.2.4): dirty blocks survive the downgrade
    inside the accelerator, but their eventual writebacks are checked at
    the border and blocked — memory integrity is preserved, the stale
    data is simply lost inside the sandbox.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ignored_flushes = 0

    def flush_caches(self) -> Generator:
        self.ignored_flushes += 1
        return 0
        yield  # pragma: no cover

    def flush_pages(self, ppns: Iterable[int]) -> Generator:
        self.ignored_flushes += 1
        return 0
        yield  # pragma: no cover
