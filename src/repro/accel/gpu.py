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
        queue = engine._queue
        ready = engine._ready
        period = clock.period_ticks
        mlp = max(1, self.geometry.mlp)
        # Mixed FIFO of in-flight work: live op Processes plus integer
        # completion-time tokens left behind by batched fast-forwarding. A
        # token ``t`` stands for an op that is known to complete at tick
        # ``t``; waiting on it is a plain timer sleep to ``t``.
        outstanding: deque = deque()
        fast_read = getattr(self.path, "fast_read", None)
        hit_latency = (
            self.path.fast_read_latency(cu_index) if fast_read is not None else 0
        )
        ops_counter = self._ops
        loads = self._loads
        stores = self._stores
        spawn = engine.process
        op_name = f"{self.accel_id}-op"
        can_batch = fast_read is not None
        # Inlined issue-port constants (BandwidthServer.request(1) — keep
        # in lockstep with that method). ``iss_den == 1`` covers every
        # integral ticks-per-byte rate (the GPU clock configs), where the
        # half-even rounding collapses to identity.
        iss_den = issue._tick_den
        iss_cost = issue._tick_num
        iss_simple = iss_den == 1
        iss_inv_bpt = 1.0 / issue.bytes_per_tick
        n = len(ops)
        i = 0
        while i < n:
            # A batch attempt is doomed unless the earliest foreign entry
            # lies beyond the cheapest possible op completion (now +
            # hit latency) — skip the preview/probe work entirely when
            # another actor is due first (the common case under high
            # wavefront concurrency). ``not ready`` + the heap-head check
            # is exactly next_event_time() > now + hit_latency: the guard
            # covers *all* ready actors at the current tick, not just this
            # wavefront. Conditions ordered cheapest-reject-first.
            if (
                not ready
                and can_batch
                and (not queue or queue[0][0] > engine.now + hit_latency)
                and self.enabled
                and self._quiesce_depth == 0
            ):
                i, target = self._fast_forward(
                    ops, i, asid, cu_index, issue, clock, outstanding,
                    mlp, fast_read, hit_latency,
                )
                if target > engine.now:
                    yield target - engine.now
                if i >= n:
                    break
            gap, vaddr, write = ops[i]
            i += 1
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
                if oldest.__class__ is int:
                    if oldest > engine.now:
                        yield oldest - engine.now
                elif not oldest.triggered:
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
            if pending.__class__ is int:
                if pending > engine.now:
                    yield pending - engine.now
            elif not pending.triggered:
                yield pending

    def _fast_forward(
        self,
        ops: Sequence[Op],
        i: int,
        asid: int,
        cu_index: int,
        issue: BandwidthServer,
        clock: Clock,
        outstanding: deque,
        mlp: int,
        fast_read,
        hit_latency: int,
    ) -> Tuple[int, int]:
        """Batch-replay a run of pure-hit reads in zero engine wakeups.

        Consumes ops starting at ``i`` for as long as each is either a
        pure compute gap or a read that hits both the L1 TLB and the L1
        cache, committing the exact side effects the per-op path would
        (issue-port reservations, TLB/L1 recency + hit counters, op
        counters) at their exact projected times, and recording each op's
        completion as an integer token in ``outstanding``. Returns
        ``(next_unconsumed_index, wavefront_time)``; the caller sleeps to
        ``wavefront_time`` in a single yield.

        Exactness proof sketch — batching never reorders border-visible
        events:

        * **Horizon.** ``guard`` is the earliest entry in the engine queue
          when the batch starts. While the batch runs, no other actor
          executes, so the queue gains nothing earlier. Every committed
          effect is timestamped strictly *before* ``guard`` (checked per
          op via its completion time ``t3 >= guard`` → stop), so no other
          actor could have observed, or interleaved with, the skipped
          intermediate states: committing them eagerly is observationally
          equivalent to the per-op interleaving.
        * **Program order.** Within the batch, per-op commit times are
          monotonic per structure (issue reservations at ``t1``, TLB
          touches at ``t2``, L1 touches at ``t3``), matching per-op
          execution; commits to *different* structures commute.
        * **Border invisibility.** A batched op is, by construction, an
          L1 read hit — it never leaves the CU, so no border-visible
          event is generated at all; the first op that would cross (any
          write — the L1s are write-through — or any miss) ends the batch
          *before* committing anything and replays through the normal
          generator path.
        * **State gates.** ``enabled``/``_quiesce_depth``/``_stall_until``
          can only change from other actors' entries, all ``>= guard``,
          so checking them once at batch entry is exact; mlp gating that
          would wait on a *live* op process ends the batch (the normal
          path performs that wait), while waits on completion tokens are
          pure ``max`` arithmetic.
        """
        engine = self.engine
        guard = engine.next_event_time()
        t = engine.now
        n = len(ops)
        stall = self._stall_until
        ops_counter = self._ops
        loads = self._loads
        period = clock.period_ticks
        while i < n:
            gap, vaddr, write = ops[i]
            if gap:
                # Same int fast path as the generator loop — identical ticks.
                t1 = t + (
                    gap * period
                    if gap.__class__ is int
                    else clock.cycles_to_ticks(gap)
                )
            else:
                t1 = t
            if vaddr is None:
                # Pure compute: only time advances. Past the horizon another
                # actor could change the issue gates before the next op, so
                # hand back to the generator path without consuming it.
                if guard is not None and t1 >= guard:
                    break
                t = t1
                i += 1
                continue
            if write:
                break  # write-through L1s: stores always cross downstream
            if len(outstanding) >= mlp:
                head = outstanding[0]
                if head.__class__ is int:
                    if head > t1:
                        t1 = head  # wait for the token's known completion
                elif not head.triggered:
                    break  # live op still in flight: the real wait happens
                # a triggered live process is popped with no wait (below)
            if stall > t1:
                t1 = stall
            delay, free = issue.preview(t1, 1)
            t2 = t1 + delay
            t3 = t2 + hit_latency
            if guard is not None and t3 >= guard:
                break
            if fast_read(cu_index, asid, vaddr) is None:
                break  # TLB or L1 miss — nothing committed, full path runs
            # -- commit: from here the op is taken, exactly as the per-op
            # path would have taken it at these times.
            if len(outstanding) >= mlp:
                outstanding.popleft()
            issue.commit(free, 1)
            ops_counter.value += 1
            loads.value += 1
            outstanding.append(t3)
            t = t2
            i += 1
        return i, t

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

    def reset_for_reuse(self) -> None:
        """Warm-reuse reset (not the modeled hardware reset): restore the
        device to its post-construction state. The engine queue was reset
        by the owning System, so in-flight wavefronts are already gone."""
        for port in self._issue_ports:
            port.reset()
        self.last_kernel_ticks = 0
        self._stall_until = 0
        self._inflight = 0
        self._quiesce_depth = 0
        self._resume_event = self.engine.event()
        self.enabled = True
        self.epoch = 0
        self.asids.clear()
        self.sandboxes.clear()

    # -- reporting ---------------------------------------------------------

    @property
    def mem_ops(self) -> int:
        return self._ops.value

    @property
    def blocked_ops(self) -> int:
        return self._blocked.value

    def last_kernel_cycles(self) -> float:
        return self.clock.ticks_to_cycles(self.last_kernel_ticks)
