"""Timing wrapper placing Border Control on the memory path.

This is the hardware position of Fig. 2: between the accelerator's
physical caches and the rest of the memory hierarchy. Every access the
accelerator L2 sends toward memory — fills and writebacks — flows through
:class:`BorderControlPort`, which consults the functional
:class:`~repro.core.border_control.BorderControl` engine and charges:

* a BCC lookup (10 GPU cycles, Table 3) when the BCC hits;
* a Protection Table access (100 cycles, plus a 128 B read that competes
  for DRAM bandwidth) when the BCC misses or no BCC is configured.

Reads proceed *in parallel* with the permission lookup (§3.1.1: the flat
table guarantees single-access lookups that "can proceed in parallel with
read requests"); data is simply not returned if the check fails. Writes
must pass the check before they are forwarded.

Resilience: when ``request_timeout_ticks`` is set, every downstream
access races an :meth:`~repro.sim.engine.Engine.deadline`; a request the
memory path never answers (a fault-injected hang, a wedged channel) is
abandoned and retried up to ``max_retries`` times with exponential
backoff, so a single lost response costs bounded time instead of wedging
the accelerator. With ``strict_timeouts`` the exhausted budget raises
:class:`~repro.errors.BorderTimeoutError`; otherwise the access fails
(``None``) and is counted. With the default ``request_timeout_ticks=0``
the port is timing-transparent — byte-identical to the pre-resilience
behavior — so the paper's calibration is untouched.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.core.border_control import BorderControl
from repro.errors import BorderTimeoutError
from repro.mem.address import BLOCK_SIZE
from repro.mem.dram import DRAM
from repro.mem.port import MemoryPort
from repro.sim.engine import Engine, TIMEOUT
from repro.sim.stats import StatDomain

__all__ = ["BorderControlPort"]


class BorderControlPort(MemoryPort):
    """The border checkpoint between untrusted caches and trusted memory."""

    name = "border"

    def __init__(
        self,
        engine: Engine,
        bc: BorderControl,
        dram: DRAM,
        downstream: MemoryPort,
        bcc_latency_ticks: int,
        pt_latency_ticks: int,
        pt_fetch_bytes: int = BLOCK_SIZE,
        stats: Optional[StatDomain] = None,
        request_timeout_ticks: int = 0,
        max_retries: int = 3,
        retry_backoff_ticks: int = 0,
        strict_timeouts: bool = False,
    ) -> None:
        self._engine = engine
        self.bc = bc
        self.dram = dram
        self.downstream = downstream
        self.bcc_latency_ticks = bcc_latency_ticks
        self.pt_latency_ticks = pt_latency_ticks
        # Without a BCC there is nothing to fill, so the checker reads just
        # the 64-bit word holding the page's 2-bit field; with a BCC a full
        # 128 B table block is fetched into the cache (§3.1.2).
        self.pt_fetch_bytes = pt_fetch_bytes
        # Watchdog parameters; 0 timeout disables the race entirely.
        self.request_timeout_ticks = request_timeout_ticks
        self.max_retries = max_retries
        self.retry_backoff_ticks = retry_backoff_ticks
        self.strict_timeouts = strict_timeouts
        # Optional chaos hook: extra Protection-Table-fetch latency (a
        # faulty PT path can only slow the check down, never skip it).
        self.pt_fault_hook: Optional[Callable[[], int]] = None
        # Epoch fence (recovery): where to read the issuing device's
        # believed attach epoch. Wired by System as a callable so that a
        # post-construction accelerator swap (the chaos harness replaces
        # ``system.gpu``) is still observed. None leaves traffic untagged.
        self.epoch_source: Optional[Callable[[], int]] = None
        stats = stats or StatDomain("border_port")
        self._checked = stats.counter("checked")
        self._blocked = stats.counter("blocked")
        self._timeouts = stats.counter("timeouts")
        self._retries = stats.counter("retries")
        self._abandoned = stats.counter("abandoned")
        self._stale_rejected = stats.counter("stale_epoch_rejections")

    def _check_delay(self, bcc_hit: bool) -> int:
        """Latency of the permission lookup; PT reads also consume DRAM
        bandwidth (the §3.1.2 motivation for having a BCC at all)."""
        if bcc_hit:
            return self.bcc_latency_ticks
        dram_delay = self.dram.access(self.pt_fetch_bytes, write=False)
        delay = self.bcc_latency_ticks + max(self.pt_latency_ticks, dram_delay)
        if self.pt_fault_hook is not None:
            delay += max(0, int(self.pt_fault_hook()))
        return delay

    def _downstream_access(
        self, addr: int, size: int, write: bool, data: Optional[bytes]
    ) -> Generator:
        """Forward one access downstream, policing it with the watchdog
        (``request_timeout_ticks`` > 0; without one, :meth:`access` calls
        the downstream port directly)."""
        attempt = 0
        while True:
            proc = self._engine.process(
                self.downstream.access(addr, size, write, data),
                name="border-downstream",
            )
            result = yield self._engine.deadline(proc, self.request_timeout_ticks)
            if result is not TIMEOUT:
                return result
            self._timeouts.inc()
            if attempt >= self.max_retries:
                self._abandoned.inc()
                if self.strict_timeouts:
                    raise BorderTimeoutError(addr, write, attempt + 1)
                return None
            attempt += 1
            self._retries.inc()
            backoff = self.retry_backoff_ticks * (1 << (attempt - 1))
            if backoff:
                yield backoff

    def access(
        self,
        addr: int,
        size: int,
        write: bool,
        data: Optional[bytes] = None,
        epoch: Optional[int] = None,
    ) -> Generator:
        self._checked.value += 1
        # Epoch fence: requests stamped with a stale attach epoch are
        # in-flight traffic from a pre-reset device; they die here — no
        # permission lookup, no memory access, no data movement. The
        # explicit ``epoch=`` argument lets the replay harness inject
        # stale traffic; live traffic is stamped via ``epoch_source``.
        if epoch is None and self.epoch_source is not None:
            epoch = self.epoch_source()
        if not self.bc.admit_epoch(epoch):
            self._stale_rejected.inc()
            return None
        decision = self.bc.check(addr, write)
        # The paper's whole point (§5.2.2): a BCC hit must be nearly free.
        # Mirror that on the host side — a hit charges the constant BCC
        # latency without the PT/DRAM pricing call.
        if decision.bcc_hit:
            delay = self.bcc_latency_ticks
        else:
            delay = self._check_delay(False)
        if write:
            # Writes commit only after the check passes.
            if delay:
                yield delay
            if not decision.allowed:
                self._blocked.inc()
                return None
            if not self.request_timeout_ticks:
                return (yield from self.downstream.access(addr, size, True, data))
            return (yield from self._downstream_access(addr, size, True, data))
        if not decision.allowed:
            # No data crosses the border; the memory read never issues.
            if delay:
                yield delay
            self._blocked.inc()
            return None
        # Read: the lookup overlaps the memory access; the slower of the
        # two determines when data may cross back into the accelerator.
        start = self._engine.now
        if not self.request_timeout_ticks:
            result = yield from self.downstream.access(addr, size, False, None)
        else:
            result = yield from self._downstream_access(addr, size, False, None)
        elapsed = self._engine.now - start
        if delay > elapsed:
            yield delay - elapsed
        return result
