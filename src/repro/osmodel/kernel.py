"""The trusted OS kernel.

The kernel owns physical memory, creates processes, maintains their page
tables, and — crucially for Border Control — drives every memory-mapping
update through the shootdown-then-downgrade protocol of paper §3.2.4:

1. invalidate stale translations everywhere (CPU TLBs, the ATS's trusted
   L2 TLB, accelerator TLBs);
2. if a downgraded page may be dirty in an accelerator cache (its
   Protection Table entry has the write bit), flush the accelerator's
   caches — the writebacks cross the border and are checked;
3. only then revoke the permissions in the Protection Table and BCC.

Kernel operations that consume simulated time (cache flushes) are written
as simulation generators with synchronous facades, so the same code path
serves both functional tests and the timed Fig. 7 downgrade experiment.
"""

from __future__ import annotations

import enum
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from repro.core.bcc import BCCConfig
from repro.core.border_control import BorderControl, ViolationRecord
from repro.core.permissions import Perm
from repro.core.sandbox import SandboxManager
from repro.errors import ConfigurationError, MemoryError_, PageFault
from repro.mem.address import PAGE_SHIFT, PAGE_SIZE, PAGES_PER_LARGE_PAGE
from repro.mem.phys_memory import PhysicalMemory
from repro.osmodel.process import Process, ProcessState, VMArea
from repro.sim.engine import Engine
from repro.sim.stats import StatDomain
from repro.sim.tracing import Events
from repro.vm.frame_allocator import FrameAllocator
from repro.vm.page_table import PageTable

__all__ = ["Kernel", "ViolationPolicy"]


class ViolationPolicy(enum.Enum):
    """What the OS does when Border Control reports a violation (§3.2.3)."""

    LOG_ONLY = "log"
    KILL_PROCESS = "kill-process"
    DISABLE_ACCELERATOR = "disable-accelerator"
    # Resilience middle ground between LOG_ONLY and the permanent
    # sanctions: disable the faulting accelerator, downgrade its
    # sandboxes (revoking every permission, so in-flight and replayed
    # requests all get blocked), and re-enable it after a backoff window
    # that doubles per repeat offense.
    QUARANTINE = "quarantine"


class Kernel:
    """The trusted OS: processes, memory, accelerators, Border Control."""

    def __init__(
        self,
        phys: PhysicalMemory,
        engine: Optional[Engine] = None,
        bcc_config: Optional[BCCConfig] = BCCConfig(),
        violation_policy: ViolationPolicy = ViolationPolicy.KILL_PROCESS,
        strict_sandbox: bool = False,
        selective_downgrade: bool = False,
        stats: Optional[StatDomain] = None,
        allocator: Optional[FrameAllocator] = None,
        sandbox_allocator: Optional[FrameAllocator] = None,
    ) -> None:
        self.engine = engine or Engine()
        self.phys = phys
        # A VMM passes a partition-confined allocator for guest memory and
        # a VMM-private one for Protection Tables (paper §3.4.2).
        self.allocator = allocator or FrameAllocator(phys)
        self.stats = stats or StatDomain("kernel")
        # The machine's one event stream (repro.sim.tracing). The
        # violation policy subscribes first, so its sanction runs before
        # any observer sees the violation.
        self.events = Events()
        self.events.subscribe("violation", self._on_violation)
        self.sandboxes = SandboxManager(
            phys,
            sandbox_allocator or self.allocator,
            bcc_config=bcc_config,
            stats=self.stats.child("sandboxes"),
            strict=strict_sandbox,
            events=self.events,
        )
        self.violation_policy = violation_policy
        self.selective_downgrade = selective_downgrade
        self.processes: Dict[int, Process] = {}
        self.violation_log: List[ViolationRecord] = []
        self._next_pid = 1
        self._next_asid = 1
        self._accels: Dict[str, object] = {}  # accel_id -> accelerator object
        self._shootdown_listeners: List[object] = []
        self._frame_refs: Dict[int, int] = {}  # COW sharing refcounts
        self._swap: Dict[Tuple[int, int], bytes] = {}  # (asid, vpn) -> page bytes
        # Quiesce time charged to accelerators on every downgrade; the
        # system builder sets this from TimingParams.downgrade_drain_cycles.
        self.downgrade_drain_ticks: int = 0
        # Quarantine backoff: how long a faulting accelerator stays
        # disabled (doubles per repeat offense). 0 keeps it disabled until
        # someone re-enables it by hand — the conservative default.
        self.quarantine_backoff_ticks: int = 0
        # Backoff exponent ceiling: the window is
        # backoff * (1 << min(strikes - 1, cap)) so repeat offenders pay
        # growing but bounded penalties (SystemConfig.quarantine_backoff_cap).
        self.quarantine_backoff_cap: int = 6
        # Violation-storm circuit breaker: at this many strikes the device
        # is quarantined permanently and its processes are killed — the
        # point where "survivable sanction" becomes "stop serving this
        # device". 0 disables the breaker (pure timed quarantine).
        self.violation_storm_threshold: int = 0
        self._quarantine_until: Dict[str, int] = {}
        self._quarantine_strikes: Dict[str, int] = {}
        self._downgrade_count = self.stats.counter("downgrades")
        self._quarantine_count = self.stats.counter("quarantines")
        self._permanent_quarantines = self.stats.counter("permanent_quarantines")
        self._storm_kills = self.stats.counter("storm_kills")
        self._readmissions = self.stats.counter("readmissions")
        self._reset_count = self.stats.counter("resets")
        self._shootdown_count = self.stats.counter("shootdowns")
        self._fault_count = self.stats.counter("page_faults")
        self._cow_copies = self.stats.counter("cow_copies")
        self._swapins = self.stats.counter("swap_ins")
        self._swapouts = self.stats.counter("swap_outs")

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def create_process(self, name: str) -> Process:
        page_table = PageTable(self.phys, self.allocator, asid=self._next_asid)
        self._next_asid += 1
        proc = Process(self._next_pid, name, page_table)
        self._next_pid += 1
        self.processes[proc.pid] = proc
        return proc

    def exit_process(self, proc: Process) -> None:
        """Tear down a process: detach accelerators, free memory."""
        self._run(self.exit_process_g(proc))

    def exit_process_g(self, proc: Process) -> Generator:
        for accel_id in sorted(proc.accelerators):
            yield from self.detach_accelerator_g(proc, self._accels[accel_id])
        for area in list(proc.areas.values()):
            yield from self._unmap_area_g(proc, area, downgrade=False)
        for listener in self._shootdown_listeners:
            listener.shootdown(proc.asid, None)
        proc.page_table.destroy()
        if proc.state is ProcessState.RUNNING:
            proc.state = ProcessState.EXITED
        self.processes.pop(proc.pid, None)

    def kill_process(self, proc: Process, reason: str) -> None:
        proc.state = ProcessState.KILLED
        proc.exit_reason = reason

    # ------------------------------------------------------------------
    # memory mapping
    # ------------------------------------------------------------------

    def mmap(
        self,
        proc: Process,
        num_pages: int,
        perms: Perm = Perm.RW,
        large: bool = False,
    ) -> int:
        """Map ``num_pages`` fresh pages; returns the starting vaddr.

        Frames are allocated eagerly (the Rodinia-style workloads touch
        their data on the CPU before kernel launch); lazy population is
        modeled separately via :meth:`mmap_lazy` + page faults.

        A failure part way (say, out of frames) unmaps and frees every
        frame this call allocated before the error propagates. Page-table
        nodes it created stay with the page table, as after
        :meth:`munmap`, and are freed when the process exits.
        """
        if num_pages <= 0:
            raise MemoryError_("mmap of zero pages")
        if large and num_pages % PAGES_PER_LARGE_PAGE:
            raise MemoryError_("large mmap must be a multiple of 512 pages")
        align = PAGES_PER_LARGE_PAGE if large else 1
        start_vpn = proc.reserve_vpns(num_pages, alignment_pages=align)
        frames: List[int] = []  # every frame this call allocated, in order
        try:
            if large:
                for chunk in range(num_pages // PAGES_PER_LARGE_PAGE):
                    base_ppn = self.allocator.alloc_contiguous(
                        PAGES_PER_LARGE_PAGE, align=PAGES_PER_LARGE_PAGE
                    )
                    frames.extend(range(base_ppn, base_ppn + PAGES_PER_LARGE_PAGE))
                    vpn = start_vpn + chunk * PAGES_PER_LARGE_PAGE
                    proc.page_table.map(vpn, base_ppn, perms, large=True)
            else:
                proc.page_table.map_pages(start_vpn, num_pages, perms, frames)
        except BaseException:
            self._rollback_mmap(proc, start_vpn, frames, align)
            raise
        for ppn in frames:
            self._frame_refs[ppn] = 1
        proc.areas[start_vpn] = VMArea(start_vpn, num_pages, perms, large=large)
        return start_vpn << PAGE_SHIFT

    def _rollback_mmap(
        self, proc: Process, start_vpn: int, frames: List[int], step: int
    ) -> None:
        """Undo a failed :meth:`mmap`: page ``i`` maps ``frames[i]`` if it
        got that far. No time passed since, so no TLB can hold these
        translations and no shootdown is needed."""
        page_table = proc.page_table
        for i in range(0, len(frames), step):
            translation = page_table.translate_vpn(start_vpn + i)
            if translation is not None and translation.ppn == frames[i]:
                page_table.unmap(start_vpn + i)
        for ppn in frames:
            self.allocator.free(ppn)

    def mmap_lazy(self, proc: Process, num_pages: int, perms: Perm = Perm.RW) -> int:
        """Reserve a region without frames; touches fault them in."""
        if num_pages <= 0:
            raise MemoryError_("mmap of zero pages")
        start_vpn = proc.reserve_vpns(num_pages)
        proc.areas[start_vpn] = VMArea(start_vpn, num_pages, perms)
        return start_vpn << PAGE_SHIFT

    def munmap(self, proc: Process, vaddr: int) -> None:
        self._run(self.munmap_g(proc, vaddr))

    def munmap_g(self, proc: Process, vaddr: int) -> Generator:
        area = proc.areas.pop(vaddr >> PAGE_SHIFT, None)
        if area is None:
            raise MemoryError_(f"munmap of unknown area at {vaddr:#x}")
        yield from self._unmap_area_g(proc, area, downgrade=True)

    def mprotect(self, proc: Process, vaddr: int, num_pages: int, perms: Perm) -> None:
        self._run(self.mprotect_g(proc, vaddr, num_pages, perms))

    def mprotect_g(
        self, proc: Process, vaddr: int, num_pages: int, perms: Perm
    ) -> Generator:
        """Change permissions; orchestrates downgrades when needed."""
        start_vpn = vaddr >> PAGE_SHIFT
        downgraded: List[int] = []  # PPNs losing permission
        for vpn in range(start_vpn, start_vpn + num_pages):
            translation = proc.page_table.translate_vpn(vpn)
            if translation is None:
                area = proc.area_for_vpn(vpn)
                if area is None:
                    raise MemoryError_(f"mprotect of unmapped vpn {vpn:#x}")
                continue  # lazy page not yet faulted in: bookkeeping only
            old = proc.page_table.protect(vpn, perms)
            if (old.perms.writable and not perms.writable) or (
                old.perms.readable and not perms.readable
            ):
                offset = vpn - translation.vpn
                downgraded.append(translation.ppn + offset)
        area = proc.area_for_vpn(start_vpn)
        if area is not None and area.start_vpn == start_vpn and area.num_pages == num_pages:
            area.perms = perms
        if downgraded:
            yield from self._downgrade_g(proc, downgraded)

    def _unmap_area_g(self, proc: Process, area: VMArea, downgrade: bool) -> Generator:
        downgraded: List[int] = []
        step = PAGES_PER_LARGE_PAGE if area.large else 1
        for vpn in range(area.start_vpn, area.start_vpn + area.num_pages, step):
            old = proc.page_table.unmap(vpn)
            if old is None:
                continue
            count = PAGES_PER_LARGE_PAGE if old.is_large else 1
            for p in range(count):
                ppn = old.ppn + p
                downgraded.append(ppn)
                self._release_frame(ppn)
        if downgrade and downgraded:
            yield from self._downgrade_g(proc, downgraded)

    def _release_frame(self, ppn: int) -> None:
        refs = self._frame_refs.get(ppn, 0)
        if refs <= 1:
            self._frame_refs.pop(ppn, None)
            self.allocator.free(ppn)
        else:
            self._frame_refs[ppn] = refs - 1

    # ------------------------------------------------------------------
    # downgrades and shootdowns (paper §3.2.4)
    # ------------------------------------------------------------------

    def _downgrade_g(self, proc: Process, ppns: Iterable[int]) -> Generator:
        """Shootdown + accelerator flush + Protection Table revocation."""
        ppns = list(ppns)
        self._downgrade_count.inc()
        self._shootdown_count.inc()
        # 1. Quiesce accelerators running this address space (drain their
        #    outstanding requests and hold them — also done for trusted
        #    accelerators), then invalidate stale translations everywhere.
        held = yield from self._quiesce(proc)
        try:
            for listener in self._shootdown_listeners:
                listener.shootdown(proc.asid, None)
            # 2+3. For each accelerator running this process: flush if any
            #      affected page might be dirty, then revoke.
            for sandbox in self.sandboxes.sandboxes_running(proc.asid):
                table = sandbox.table
                if table is None:
                    continue
                might_be_dirty = any(
                    table.covers(ppn) and table.get(ppn).writable for ppn in ppns
                )
                accel = self._accels.get(sandbox.accel_id)
                if might_be_dirty and accel is not None:
                    if self.selective_downgrade and hasattr(accel, "flush_pages"):
                        yield from accel.flush_pages(ppns)
                    else:
                        yield from accel.flush_caches()
                if self.selective_downgrade:
                    for ppn in ppns:
                        if table.covers(ppn):
                            sandbox.downgrade_page(ppn)
                else:
                    sandbox.downgrade_all()
        finally:
            for accel in held:
                accel.resume()

    def downgrade_process_g(self, proc: Process) -> Generator:
        """Full-context downgrade (context switch / swap of whole process).

        This is the Fig. 7 event: flush accelerator caches, zero the
        Protection Table, invalidate BCC and accelerator TLBs.
        """
        self._downgrade_count.inc()
        held = yield from self._quiesce(proc)
        try:
            for listener in self._shootdown_listeners:
                listener.shootdown(proc.asid, None)
            for sandbox in self.sandboxes.sandboxes_running(proc.asid):
                accel = self._accels.get(sandbox.accel_id)
                if accel is not None:
                    yield from accel.flush_caches()
                sandbox.downgrade_all()
        finally:
            for accel in held:
                accel.resume()

    def _quiesce(self, proc: Process) -> Generator:
        """Quiesce the process's accelerators: drain outstanding requests
        and hold them stalled until the caller resumes them after
        revocation — the dominant cost of a downgrade for trusted and
        untrusted accelerators alike (§5.2.4). Returns the held accels."""
        held = []
        for accel_id in sorted(proc.accelerators):
            accel = self._accels.get(accel_id)
            if accel is not None:
                yield from accel.quiesce_g(self.downgrade_drain_ticks)
                held.append(accel)
        return held

    def register_shootdown_listener(self, listener: object) -> None:
        """Anything caching translations: MMUs, the ATS, accelerators."""
        self._shootdown_listeners.append(listener)

    def downgrade_process(self, proc: Process) -> None:
        """Synchronous facade for :meth:`downgrade_process_g` (the Fig. 7
        context-switch event), for callers outside the simulation loop."""
        self._run(self.downgrade_process_g(proc))

    # ------------------------------------------------------------------
    # page faults, copy-on-write, swap
    # ------------------------------------------------------------------

    def fork_cow(self, parent: Process, name: str) -> Process:
        """Fork with copy-on-write: share frames read-only (both sides).

        Write-protecting the parent's writable pages is itself a
        permission downgrade and goes through the full §3.2.4 protocol.
        """
        child = self.create_process(name)
        downgraded: List[int] = []
        for translation in list(parent.page_table.entries()):
            if translation.is_large:
                raise ConfigurationError("COW of large pages is not modeled")
            share_perms = (
                Perm.R if translation.perms.writable else translation.perms
            )
            if translation.perms.writable:
                parent.page_table.protect(translation.vpn, Perm.R)
                downgraded.append(translation.ppn)
            child.page_table.map(translation.vpn, translation.ppn, share_perms)
            self._frame_refs[translation.ppn] = self._frame_refs.get(translation.ppn, 1) + 1
        for start_vpn, area in parent.areas.items():
            child.areas[start_vpn] = VMArea(
                area.start_vpn, area.num_pages, area.perms, cow=True
            )
            area.cow = True
        child._mmap_cursor = parent._mmap_cursor
        if downgraded:
            self._run(self._downgrade_g(parent, downgraded))
        return child

    def handle_page_fault(self, proc: Process, vaddr: int, write: bool) -> int:
        """Service a fault; returns the (new) PPN. Raises if not serviceable."""
        self._fault_count.inc()
        vpn = vaddr >> PAGE_SHIFT
        area = proc.area_for_vpn(vpn)
        if area is None:
            raise PageFault(vaddr, write)
        translation = proc.page_table.translate_vpn(vpn)
        if translation is None:
            swapped = self._swap.pop((proc.asid, vpn), None)
            ppn = self.allocator.alloc()
            self._frame_refs[ppn] = 1
            if swapped is not None:
                self._swapins.inc()
                self.phys.write(ppn << PAGE_SHIFT, swapped)
            proc.page_table.map(vpn, ppn, area.perms)
            return ppn
        if write and not translation.perms.writable and area.cow:
            return self._resolve_cow(proc, vpn, translation.ppn, area)
        raise PageFault(vaddr, write)

    def _resolve_cow(self, proc: Process, vpn: int, old_ppn: int, area: VMArea) -> int:
        """Copy-on-write resolution: private copy, upgrade to writable.

        Per the paper, this never flushes accelerator caches: the shared
        page was read-only, so no dirty accelerator data can exist.
        """
        self._cow_copies.inc()
        refs = self._frame_refs.get(old_ppn, 1)
        if refs == 1:
            # Last sharer: upgrade in place.
            proc.page_table.protect(vpn, Perm.RW)
            return old_ppn
        new_ppn = self.allocator.alloc()
        self._frame_refs[new_ppn] = 1
        self._frame_refs[old_ppn] = refs - 1
        data = self.phys.read(old_ppn << PAGE_SHIFT, PAGE_SIZE)
        self.phys.write(new_ppn << PAGE_SHIFT, data)
        # unmap+map is an upgrade-with-move; the old read-only translation
        # must still be shot down so nothing keeps using old_ppn.
        proc.page_table.unmap(vpn)
        proc.page_table.map(vpn, new_ppn, Perm.RW)
        for listener in self._shootdown_listeners:
            listener.shootdown(proc.asid, vpn)
        return new_ppn

    def swap_out(self, proc: Process, vaddr: int) -> None:
        self._run(self.swap_out_g(proc, vaddr))

    def swap_out_g(self, proc: Process, vaddr: int) -> Generator:
        """Evict one page to the swap store (a downgrade to no-access)."""
        vpn = vaddr >> PAGE_SHIFT
        translation = proc.page_table.translate_vpn(vpn)
        if translation is None or translation.is_large:
            raise MemoryError_(f"cannot swap out vpn {vpn:#x}")
        self._swapouts.inc()
        # Downgrade *before* reading the frame so dirty accelerator data is
        # written back (checked) and captured by the swap image.
        proc.page_table.unmap(vpn)
        yield from self._downgrade_g(proc, [translation.ppn])
        data = self.phys.read(translation.ppn << PAGE_SHIFT, PAGE_SIZE)
        self._swap[(proc.asid, vpn)] = data
        self._release_frame(translation.ppn)

    # ------------------------------------------------------------------
    # accelerators
    # ------------------------------------------------------------------

    def attach_accelerator(
        self, proc: Process, accel, sandboxed: bool = True
    ) -> Optional[BorderControl]:
        """Start a process on an accelerator (Fig. 3a).

        ``sandboxed=False`` models the non-Border-Control configurations
        (unsafe direct access, full IOMMU, CAPI-like) where no Protection
        Table exists for the accelerator.
        """
        return self._run(self.attach_accelerator_g(proc, accel, sandboxed))

    def attach_accelerator_g(
        self, proc: Process, accel, sandboxed: bool = True
    ) -> Generator:
        if not proc.alive:
            raise ConfigurationError(f"process {proc.pid} is not running")
        accel_id = accel.accel_id
        self._accels[accel_id] = accel
        sandbox: Optional[BorderControl] = None
        if sandboxed:
            sandbox = self.sandboxes.attach(accel_id, proc.asid)
            if hasattr(accel, "set_epoch"):
                # Stamp the device with the attach epoch (recovery): the
                # border admits only traffic carrying the current epoch.
                accel.set_epoch(sandbox.epoch)
        proc.accelerators.add(accel_id)
        accel.attach_process(proc, sandbox)
        if accel not in self._shootdown_listeners:
            self.register_shootdown_listener(accel)
        return sandbox
        yield  # pragma: no cover - generator facade for symmetry

    def detach_accelerator(self, proc: Process, accel) -> None:
        self._run(self.detach_accelerator_g(proc, accel))

    def detach_accelerator_g(self, proc: Process, accel) -> Generator:
        """Process completion on an accelerator (Fig. 3e): flush, zero, free."""
        accel_id = accel.accel_id
        if accel_id not in proc.accelerators:
            raise ConfigurationError(
                f"process {proc.pid} is not attached to {accel_id!r}"
            )
        yield from accel.flush_caches()
        accel.shootdown(proc.asid, None)
        accel.detach_process(proc)
        if any(
            sb.accel_id == accel_id
            for sb in self.sandboxes.sandboxes_running(proc.asid)
        ):
            self.sandboxes.detach(accel_id, proc.asid)
        proc.accelerators.discard(accel_id)

    # ------------------------------------------------------------------
    # violations (paper §3.2.3: "terminating the process or disabling
    # the accelerator")
    # ------------------------------------------------------------------

    def _on_violation(self, record: ViolationRecord) -> None:
        self.violation_log.append(record)
        if self.violation_policy is ViolationPolicy.LOG_ONLY:
            return
        if self.violation_policy is ViolationPolicy.DISABLE_ACCELERATOR:
            accel = self._accels.get(record.accel_id)
            if accel is not None and hasattr(accel, "disable"):
                accel.disable()
            return
        if self.violation_policy is ViolationPolicy.QUARANTINE:
            self.quarantine_accelerator(record.accel_id, record.describe())
            return
        # KILL_PROCESS: every process running on the offending accelerator
        # is terminated (the OS cannot attribute the rogue request more
        # precisely than the accelerator it came from).
        for proc in list(self.processes.values()):
            if record.accel_id in proc.accelerators and proc.alive:
                self.kill_process(proc, record.describe())

    # ------------------------------------------------------------------
    # quarantine: survivable sanctions for faulting accelerators
    # ------------------------------------------------------------------

    def quarantine_accelerator(self, accel_id: str, reason: str = "") -> bool:
        """Disable a faulting accelerator and revoke its sandbox.

        Downgrading the sandbox (rather than tearing it down) means every
        request the wedged or misbehaving device still has in flight — or
        replays after a hardware reset — hits a zeroed Protection Table
        and is blocked at the border; the accelerator rejoins the system
        after the backoff window with an empty sandbox it must repopulate
        through legitimate ATS translations.

        Returns ``False`` when the accelerator is unknown or already
        quarantined (a violation storm must not stack sanctions).
        """
        accel = self._accels.get(accel_id)
        if accel is None or self.is_quarantined(accel_id):
            return False
        self._quarantine_count.inc()
        strikes = self._quarantine_strikes.get(accel_id, 0) + 1
        self._quarantine_strikes[accel_id] = strikes
        if hasattr(accel, "disable"):
            accel.disable()
        # Drain/downgrade: no flush request — a wedged device cannot be
        # trusted to answer one, and §3.2.4 says ignoring it is safe
        # (later writebacks are checked and blocked).
        for _aid, sandbox in self.sandboxes.active_sandboxes():
            if _aid == accel_id:
                sandbox.downgrade_all()
        # Circuit breaker: a violation storm has exhausted the kernel's
        # patience — stop re-admitting the device and kill its processes
        # (they can never make progress on a permanently banned device).
        threshold = self.violation_storm_threshold
        if threshold > 0 and strikes >= threshold:
            self._permanent_quarantines.inc()
            self._quarantine_until[accel_id] = -1
            self._emit_lifecycle(
                "quarantine", accel_id, strikes=strikes, permanent=True
            )
            for proc in list(self.processes.values()):
                if accel_id in proc.accelerators and proc.alive:
                    self._storm_kills.inc()
                    self.kill_process(
                        proc,
                        f"{accel_id}: violation storm "
                        f"({strikes} strikes); accelerator permanently quarantined"
                        + (f" — {reason}" if reason else ""),
                    )
                    self._emit_lifecycle("storm-kill", accel_id, pid=proc.pid)
            return True
        exponent = min(strikes - 1, self.quarantine_backoff_cap)
        window = self.quarantine_backoff_ticks * (1 << exponent)
        if window > 0:
            until = self.engine.now + window
            self._quarantine_until[accel_id] = until
            self.engine.schedule(window, lambda: self._release_quarantine(accel_id))
        else:
            # No backoff configured: quarantined until manually released.
            self._quarantine_until[accel_id] = -1
        self._emit_lifecycle("quarantine", accel_id, strikes=strikes, permanent=False)
        return True

    def _emit_lifecycle(self, event: str, accel_id: str, **info: object) -> None:
        self.events.emit("lifecycle", event, accel_id, info)

    def is_quarantined(self, accel_id: str) -> bool:
        until = self._quarantine_until.get(accel_id)
        if until is None:
            return False
        return until < 0 or self.engine.now < until

    def _release_quarantine(self, accel_id: str) -> None:
        until = self._quarantine_until.get(accel_id)
        if until is None or until < 0 or self.engine.now < until:
            return  # superseded by a newer, longer quarantine
        self.release_quarantine(accel_id)

    def release_quarantine(self, accel_id: str) -> None:
        """End a quarantine: the accelerator may accept work again.

        Unknown accelerators are a no-op; known ones are re-admitted via
        :meth:`~repro.accel.base.AcceleratorBase.enable` so subclasses
        and fault-injection wrappers observe re-admission.
        """
        self._quarantine_until.pop(accel_id, None)
        accel = self._accels.get(accel_id)
        if accel is None:
            return
        self._readmissions.inc()
        if hasattr(accel, "enable"):
            accel.enable()
        else:
            accel.enabled = True
        self._emit_lifecycle("readmit", accel_id)

    def reset_accelerator(self, accel_id: str) -> bool:
        """Epoch-fenced accelerator reset (recovery subsystem).

        The recovery sequence is ordered so a pre-reset device replaying
        in-flight traffic can never slip through:

        1. advance the sandbox's attach epoch *first* — from this instant
           any request stamped with the old epoch is rejected at the
           border and the ATS, before the device is even touched;
        2. downgrade the sandbox (zeroed Protection Table / invalid BCC),
           so even current-epoch traffic re-earns every permission
           through legitimate ATS translations;
        3. reset the device into the new epoch and lift the quarantine.

        Returns ``False`` when the accelerator is unknown. Strike history
        is deliberately kept — a device that violates again after a reset
        escalates, it does not start over.
        """
        accel = self._accels.get(accel_id)
        if accel is None:
            return False
        self._reset_count.inc()
        sandbox = self.sandboxes.sandbox_for(accel_id)
        epoch = 0
        if sandbox is not None:
            epoch = sandbox.advance_epoch()
            if sandbox.active:
                sandbox.downgrade_all()
        self._quarantine_until.pop(accel_id, None)
        if hasattr(accel, "reset"):
            accel.reset(epoch)
        else:
            if hasattr(accel, "set_epoch"):
                accel.set_epoch(epoch)
            if hasattr(accel, "enable"):
                accel.enable()
            else:
                accel.enabled = True
        self._emit_lifecycle("reset", accel_id, epoch=epoch)
        return True

    # ------------------------------------------------------------------
    # process-memory helpers (trusted kernel access, bypassing TLBs)
    # ------------------------------------------------------------------

    def proc_write(self, proc: Process, vaddr: int, data: bytes) -> None:
        pos = 0
        addr = vaddr
        while pos < len(data):
            chunk = min(len(data) - pos, PAGE_SIZE - (addr & (PAGE_SIZE - 1)))
            paddr = self._translate_for_kernel(proc, addr)
            self.phys.write(paddr, data[pos : pos + chunk])
            pos += chunk
            addr += chunk

    def proc_read(self, proc: Process, vaddr: int, length: int) -> bytes:
        out = bytearray()
        addr = vaddr
        while len(out) < length:
            chunk = min(length - len(out), PAGE_SIZE - (addr & (PAGE_SIZE - 1)))
            paddr = self._translate_for_kernel(proc, addr)
            out += self.phys.read(paddr, chunk)
            addr += chunk
        return bytes(out)

    def _translate_for_kernel(self, proc: Process, vaddr: int) -> int:
        translation = proc.page_table.translate(vaddr)
        if translation is None:
            ppn = self.handle_page_fault(proc, vaddr, write=False)
            return (ppn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))
        offset_pages = (vaddr >> PAGE_SHIFT) - translation.vpn
        return ((translation.ppn + offset_pages) << PAGE_SHIFT) | (
            vaddr & (PAGE_SIZE - 1)
        )

    # ------------------------------------------------------------------

    def _run(self, gen: Generator):
        """Drive a kernel generator to completion on the engine."""
        return self.engine.run_process(gen, name="kernel-op")
