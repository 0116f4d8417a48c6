"""The GPGPU model — the paper's stress-test accelerator (§5.1).

The GPU executes *kernel traces*: per-compute-unit, per-wavefront streams
of coalesced, block-granular memory operations separated by compute
gaps. Each wavefront is a simulation process; a compute unit issues at
most one memory instruction per cycle. Latency tolerance is emergent:
the highly threaded configuration (8 CUs, many wavefronts) overlaps
memory latency across contexts, while the moderately threaded one (1 CU,
few wavefronts) cannot — reproducing the sensitivity split in Fig. 4.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator, Iterable, List, Optional, Sequence, Tuple

from repro.accel.base import AcceleratorBase
from repro.mem.address import BLOCK_SIZE
from repro.sim.clock import Clock
from repro.sim.engine import BandwidthServer, Engine, Process
from repro.sim.clock import TICKS_PER_SECOND
from repro.sim.stats import StatDomain

__all__ = ["GPU", "GPUGeometry", "KernelTrace", "Op"]

# One wavefront operation: (compute-gap cycles, vaddr or None, is_write).
# vaddr None means a pure compute segment.
Op = Tuple[int, Optional[int], bool]


@dataclass(frozen=True)
class GPUGeometry:
    """Structural parameters (Table 3)."""

    num_cus: int = 8
    l1_tlb_entries: int = 64
    # Outstanding memory operations per wavefront: GPU loads are
    # non-blocking until first use, giving each context a little
    # memory-level parallelism on top of wavefront interleaving.
    mlp: int = 2
    # Coalesced memory instructions a CU's load/store pipes accept per
    # cycle (GCN-class CUs have multiple vector memory pipes).
    issue_per_cycle: int = 2

    @classmethod
    def highly_threaded(cls) -> "GPUGeometry":
        return cls(num_cus=8)

    @classmethod
    def moderately_threaded(cls) -> "GPUGeometry":
        return cls(num_cus=1)


@dataclass
class KernelTrace:
    """A workload's memory behavior, already coalesced to 128 B blocks."""

    name: str
    cu_wavefronts: List[List[List[Op]]]  # [cu][wavefront][op]
    footprint_pages: int = 0

    @property
    def num_cus(self) -> int:
        return len(self.cu_wavefronts)

    @property
    def total_mem_ops(self) -> int:
        return sum(
            sum(1 for op in wf if op[1] is not None)
            for cu in self.cu_wavefronts
            for wf in cu
        )

    @property
    def total_compute_cycles(self) -> int:
        return sum(
            op[0] for cu in self.cu_wavefronts for wf in cu for op in wf
        )


def _payload_for(vaddr: int) -> bytes:
    """Deterministic 128 B store payload derived from the address."""
    return (vaddr & (2**64 - 1)).to_bytes(8, "little") * (BLOCK_SIZE // 8)


class GPU(AcceleratorBase):
    """A GPGPU replaying kernel traces through a memory path."""

    def __init__(
        self,
        engine: Engine,
        clock: Clock,
        geometry: GPUGeometry,
        path,
        stats: Optional[StatDomain] = None,
        accel_id: str = "gpu0",
    ) -> None:
        super().__init__(accel_id)
        self.engine = engine
        self.clock = clock
        self.geometry = geometry
        self.path = path
        self.stats = stats or StatDomain(accel_id)
        self._issue_ports = [
            BandwidthServer(
                engine,
                # One "op byte" per issue slot per cycle.
                bytes_per_second=clock.freq_hz * geometry.issue_per_cycle,
                ticks_per_second=TICKS_PER_SECOND,
            )
            for _ in range(geometry.num_cus)
        ]
        self._ops = self.stats.counter("mem_ops")
        self._loads = self.stats.counter("loads")
        self._stores = self.stats.counter("stores")
        self._blocked = self.stats.counter("blocked_ops")
        self._kernels = self.stats.counter("kernels")
        self.last_kernel_ticks: int = 0
        self._stall_until: int = 0
        self._inflight: int = 0
        self._quiesce_depth: int = 0
        self._resume_event = engine.event()

    # -- execution --------------------------------------------------------

    def launch(self, asid: int, trace: KernelTrace) -> Process:
        """Start a kernel; returns a process that completes when all
        wavefronts have finished."""
        if not self.enabled:
            from repro.errors import AcceleratorDisabledError

            raise AcceleratorDisabledError(f"{self.accel_id} is disabled")
        if asid not in self.asids:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"asid {asid} is not attached to {self.accel_id}"
            )
        if trace.num_cus > self.geometry.num_cus:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"trace uses {trace.num_cus} CUs; GPU has {self.geometry.num_cus}"
            )
        self._kernels.inc()
        wavefront_procs = []
        for cu_index, wavefronts in enumerate(trace.cu_wavefronts):
            for wf_ops in wavefronts:
                wavefront_procs.append(
                    self.engine.process(
                        self._run_wavefront(asid, cu_index, wf_ops),
                        name=f"{self.accel_id}-cu{cu_index}-wf",
                    )
                )

        def _barrier() -> Generator:
            yield self.engine.all_of(wavefront_procs)
            return None

        return self.engine.process(_barrier(), name=f"{self.accel_id}-kernel")

    def run_kernel(self, asid: int, trace: KernelTrace) -> int:
        """Synchronous convenience: run to completion, return elapsed ticks."""
        start = self.engine.now
        done = self.launch(asid, trace)
        self.engine.run()
        if not done.triggered:
            from repro.sim.engine import SimulationError

            raise SimulationError("kernel did not complete (deadlock?)")
        self.last_kernel_ticks = self.engine.now - start
        return self.last_kernel_ticks

    def _run_wavefront(
        self,
        asid: int,
        cu_index: int,
        ops: Sequence[Op],
    ) -> Generator:
        issue = self._issue_ports[cu_index]
        clock = self.clock
        engine = self.engine
        period = clock.period_ticks
        mlp = max(1, self.geometry.mlp)
        # FIFO of this wavefront's in-flight op processes.
        outstanding: deque = deque()
        ops_counter = self._ops
        loads = self._loads
        stores = self._stores
        spawn = engine.process
        op_name = f"{self.accel_id}-op"
        # Inlined issue-port constants (BandwidthServer.request(1) — keep
        # in lockstep with that method). ``iss_den == 1`` covers every
        # integral ticks-per-byte rate (the GPU clock configs), where the
        # half-even rounding collapses to identity.
        iss_den = issue._tick_den
        iss_cost = issue._tick_num
        iss_simple = iss_den == 1
        iss_inv_bpt = 1.0 / issue.bytes_per_tick
        for gap, vaddr, write in ops:
            if gap:
                # Trace gaps are integer cycles; gap * period is exactly
                # cycles_to_ticks(gap) then (int(round()) is identity on
                # ints). Non-int gaps from hand-built traces take the
                # rounding call.
                yield gap * period if gap.__class__ is int else clock.cycles_to_ticks(gap)
            if vaddr is None:
                continue
            if not self.enabled:
                break  # the OS pulled the plug mid-kernel
            if len(outstanding) >= mlp:
                oldest = outstanding.popleft()
                if not oldest.triggered:
                    yield oldest
            while self._quiesce_depth > 0:
                # Held for a permission downgrade: wait for the resume.
                yield self._resume_event
            if self._stall_until > engine.now:
                # Post-resume pipeline restart delay.
                yield self._stall_until - engine.now
            # Inlined issue.request(1) — one memory instruction per CU
            # cycle. Keep in lockstep with BandwidthServer.request; the
            # ``iss_simple`` arm is the den == 1 specialization where
            # rounding is the identity and the delay is always positive.
            if iss_simple:
                now = engine.now
                free = issue._free_num
                free = (free if free > now else now) + iss_cost
                issue._free_num = free
                issue.bytes_served += 1
                issue.busy_ticks += iss_inv_bpt
                yield free - now
            else:
                delay = issue.request(1)
                if delay:
                    yield delay
            while self._quiesce_depth > 0:
                # The downgrade began while we waited for an issue slot;
                # re-gate so the op translates after the shootdown.
                yield self._resume_event
            ops_counter.value += 1
            if write:
                stores.value += 1
            else:
                loads.value += 1
            outstanding.append(
                spawn(self._do_op(cu_index, asid, vaddr, write), name=op_name)
            )
        for pending in outstanding:
            if not pending.triggered:
                yield pending

    def _do_op(self, cu_index: int, asid: int, vaddr: int, write: bool) -> Generator:
        self._inflight += 1
        try:
            if write:
                result = yield from self.path.mem_op(
                    cu_index, asid, vaddr, True, _payload_for(vaddr)
                )
            else:
                result = yield from self.path.mem_op(cu_index, asid, vaddr, False)
        finally:
            self._inflight -= 1
        if result is None:
            self._blocked.inc()
        return result

    # -- kernel-facing maintenance (AcceleratorBase protocol) -----------------

    def shootdown(self, asid: int, vpn: Optional[int] = None) -> None:
        self.path.shootdown(asid, vpn)

    def drain(self, ticks: int) -> None:
        self._stall_until = max(self._stall_until, self.engine.now + ticks)

    def quiesce_g(self, drain_ticks: int) -> Generator:
        """Hold issue, wait for outstanding requests, stay held (§3.2.4)."""
        self._quiesce_depth += 1
        poll = max(1, drain_ticks // 4) if drain_ticks else 1000
        while self._inflight > 0:
            yield poll
        if drain_ticks:
            yield drain_ticks  # pipeline quiesce on top of the drain
        return None

    def resume(self) -> None:
        if self._quiesce_depth == 0:
            return
        self._quiesce_depth -= 1
        if self._quiesce_depth == 0:
            event, self._resume_event = self._resume_event, self.engine.event()
            event.succeed()

    def flush_caches(self) -> Generator:
        written = yield from self.path.flush_caches()
        return written

    def flush_pages(self, ppns: Iterable[int]) -> Generator:
        written = yield from self.path.flush_pages(ppns)
        return written

    def reset(self, epoch: int) -> None:
        """A hardware reset loses the device's volatile state: cached
        lines (dirty data included) are discarded, not written back —
        whatever the pre-reset device had queued outbound replays under
        the old epoch and dies at the border fence."""
        for cache in getattr(self.path, "l1_caches", []):
            cache.invalidate_all()
        l2 = getattr(self.path, "l2_cache", None)
        if l2 is not None:
            l2.invalidate_all()
        super().reset(epoch)

    # -- reporting ---------------------------------------------------------

    @property
    def mem_ops(self) -> int:
        return self._ops.value

    @property
    def blocked_ops(self) -> int:
        return self._blocked.value

    def last_kernel_cycles(self) -> float:
        return self.clock.ticks_to_cycles(self.last_kernel_ticks)
