"""An accelerator that wedges mid-kernel — the hang the OS must survive.

:class:`HangingAccelerator` is a GPU whose request engine stops draining
its queue after a configurable number of memory operations: in-flight
wavefront operations park on an internal event that the device itself
will never trigger (a wedged DMA engine, a deadlocked on-chip arbiter —
the paper's §2.1 "design faults" class). The host-side recovery story is
what's under test:

* a watchdog notices the kernel stopped making progress;
* the OS quarantines the accelerator (``ViolationPolicy.QUARANTINE`` or
  :meth:`Kernel.quarantine_accelerator`), which disables it;
* :meth:`disable` releases the parked operations, which complete as
  failed (``None``) — so every wavefront unwinds, the kernel barrier
  triggers, and ``Engine.run`` terminates with no simulated deadlock.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.accel.gpu import GPU

__all__ = ["HangingAccelerator"]


class HangingAccelerator(GPU):
    """A GPU that stops servicing its memory queue after N operations.

    ``hang_after_ops`` counts only ops that reach :meth:`_do_op`. L1 TLB +
    L1 cache read hits served by the wavefront fast path
    (:meth:`GPU._fast_forward`) never leave the compute unit and never
    call ``_do_op``, so they do not count toward the hang.
    """

    def __init__(self, *args, hang_after_ops: int = 50, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ops_until_hang: Optional[int] = hang_after_ops
        self._park = None
        self.hangs = 0

    @property
    def hung(self) -> bool:
        return self._park is not None and not self._park.triggered

    def _do_op(self, cu_index: int, asid: int, vaddr: int, write: bool) -> Generator:
        if self._ops_until_hang is not None:
            self._ops_until_hang -= 1
            if self._ops_until_hang < 0:
                if self._park is None or self._park.triggered:
                    self._park = self.engine.event()
                    self.hangs += 1
                yield self._park  # the queue stops draining right here
                self._blocked.inc()
                return None  # released by recovery: the op is lost
        return (yield from super()._do_op(cu_index, asid, vaddr, write))

    def release(self) -> int:
        """Un-wedge the engine (hardware reset); parked ops fail out.

        Returns the number of park events released. After a release the
        device behaves normally again — the hang does not re-arm.
        """
        self._ops_until_hang = None
        if self._park is not None and not self._park.triggered:
            self._park.succeed(None)
            return 1
        return 0

    def disable(self) -> None:
        """OS sanction (quarantine): also resets the wedged engine so
        every parked request drains and the kernel can terminate."""
        super().disable()
        self.release()

    def reset(self, epoch: int) -> None:
        """Epoch-fenced hardware reset also clears the wedge: the stuck
        DMA engine's queue is flushed, so the device does not re-hang."""
        self.release()
        super().reset(epoch)
