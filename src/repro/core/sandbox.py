"""OS-facing sandbox registry.

The kernel owns one :class:`SandboxManager`; it creates a Border Control
instance per accelerator on demand, tracks which address spaces run where,
and fans permission downgrades out to every accelerator an address space
touches. This is the "one Protection Table per active accelerator" rule of
§3.1.1 made concrete.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.bcc import BCCConfig
from repro.core.border_control import BorderControl, ViolationRecord
from repro.core.permissions import Perm
from repro.errors import ConfigurationError
from repro.mem.phys_memory import PhysicalMemory
from repro.sim.stats import StatDomain
from repro.vm.frame_allocator import FrameAllocator

__all__ = ["SandboxManager"]


class SandboxManager:
    """Creates and tracks per-accelerator Border Control instances."""

    def __init__(
        self,
        phys: PhysicalMemory,
        allocator: FrameAllocator,
        bcc_config: Optional[BCCConfig] = BCCConfig(),
        stats: Optional[StatDomain] = None,
        strict: bool = False,
        table_kind: str = "flat",
    ) -> None:
        self.phys = phys
        self.allocator = allocator
        self.bcc_config = bcc_config
        self.strict = strict
        self.table_kind = table_kind
        self.stats = stats or StatDomain("sandboxes")
        self._sandboxes: Dict[str, BorderControl] = {}
        # asid -> accelerator ids it currently runs on
        self._placements: Dict[int, Set[str]] = {}
        self._violation_handlers: List[Callable[[ViolationRecord], None]] = []

    # -- registry ----------------------------------------------------------

    def border_control_for(self, accel_id: str) -> BorderControl:
        """Get (creating lazily) the Border Control guarding an accelerator."""
        sandbox = self._sandboxes.get(accel_id)
        if sandbox is None:
            sandbox = BorderControl(
                accel_id,
                self.phys,
                self.allocator,
                bcc_config=self.bcc_config,
                stats=self.stats.child(accel_id),
                strict=self.strict,
                table_kind=self.table_kind,
            )
            for handler in self._violation_handlers:
                sandbox.on_violation(handler)
            self._sandboxes[accel_id] = sandbox
        return sandbox

    def sandbox_for(self, accel_id: str) -> Optional[BorderControl]:
        """The Border Control guarding an accelerator, or None if one was
        never created (unlike :meth:`border_control_for`, never creates)."""
        return self._sandboxes.get(accel_id)

    def on_violation(self, handler: Callable[[ViolationRecord], None]) -> None:
        """Install an OS handler on every current and future sandbox."""
        self._violation_handlers.append(handler)
        for sandbox in self._sandboxes.values():
            sandbox.on_violation(handler)

    def off_violation(self, handler: Callable[[ViolationRecord], None]) -> None:
        """Remove a handler :meth:`on_violation` installed, from every sandbox."""
        self._violation_handlers.remove(handler)
        for sandbox in self._sandboxes.values():
            sandbox.off_violation(handler)

    # -- process lifecycle ----------------------------------------------------

    def attach(self, accel_id: str, asid: int) -> BorderControl:
        """A process starts on an accelerator (Fig. 3a)."""
        sandbox = self.border_control_for(accel_id)
        sandbox.process_init(asid)
        # Every attach opens a new epoch (recovery): requests still in
        # flight from before the attach carry the old epoch and cannot
        # leak into the new process's sandbox.
        sandbox.advance_epoch()
        self._placements.setdefault(asid, set()).add(accel_id)
        return sandbox

    def detach(self, accel_id: str, asid: int) -> bool:
        """A process finishes on an accelerator (Fig. 3e)."""
        sandbox = self._sandboxes.get(accel_id)
        if sandbox is None:
            raise ConfigurationError(f"unknown accelerator {accel_id!r}")
        torn_down = sandbox.process_complete(asid)
        accels = self._placements.get(asid)
        if accels is not None:
            accels.discard(accel_id)
            if not accels:
                del self._placements[asid]
        return torn_down

    # -- fan-out ------------------------------------------------------------

    def sandboxes_running(self, asid: int) -> Iterator[BorderControl]:
        """Every sandbox whose accelerator currently runs this address space."""
        for accel_id in sorted(self._placements.get(asid, ())):
            yield self._sandboxes[accel_id]

    def insert_translation(
        self, accel_id: str, ppn: int, perms: Perm, page_count: int = 1
    ) -> int:
        """Route an ATS translation completion to the right sandbox (Fig. 3b)."""
        return self.border_control_for(accel_id).insert_translation(
            ppn, perms, page_count
        )

    def active_sandboxes(self) -> List[Tuple[str, BorderControl]]:
        return [
            (accel_id, sandbox)
            for accel_id, sandbox in sorted(self._sandboxes.items())
            if sandbox.active
        ]

    def total_table_bytes(self) -> int:
        """Aggregate Protection Table storage across active accelerators."""
        return sum(
            sandbox.table.size_bytes
            for _id, sandbox in self.active_sandboxes()
            if sandbox.table is not None
        )
