"""DRAM timing model: fixed access latency plus a shared bandwidth server.

The paper's memory system provides 180 GB/s of peak bandwidth (Table 3).
We model DRAM as a fixed per-access latency in series with a FIFO
bandwidth channel; when the accelerator's offered load approaches the
channel's capacity — as it does for the cache-less full-IOMMU
configuration — queueing delay dominates and runtime scales with total
bytes moved, reproducing the saturation behavior behind Fig. 4a.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import TICKS_PER_SECOND, Clock
from repro.sim.engine import BandwidthServer, Engine
from repro.sim.stats import StatDomain

__all__ = ["DRAM", "DRAMConfig"]


@dataclass(frozen=True)
class DRAMConfig:
    """Timing parameters for the memory system."""

    peak_bandwidth_bytes_per_s: float = 180e9  # Table 3
    access_latency_ns: float = 60.0  # row access + controller
    block_size: int = 128
    # Channel occupancy charged per access on top of the transfer itself
    # (activate/precharge, command overhead). 128 B means a random block
    # access achieves ~50% of peak bandwidth, which is what lets the
    # cache-less full-IOMMU configuration overwhelm DRAM (paper §5.2).
    access_overhead_bytes: int = 128


class DRAM:
    """The timing side of main memory (data lives in PhysicalMemory)."""

    def __init__(self, engine: Engine, config: DRAMConfig, stats: StatDomain) -> None:
        self._engine = engine
        self.config = config
        self._channel = BandwidthServer(
            engine, config.peak_bandwidth_bytes_per_s, TICKS_PER_SECOND
        )
        self.latency_ticks = int(round(config.access_latency_ns * 1_000))  # ns -> ps
        self._stats = stats
        self._reads = stats.counter("reads")
        self._writes = stats.counter("writes")
        self._bytes = stats.counter("bytes")

    def access(self, nbytes: int, write: bool) -> int:
        """Account one DRAM access; returns its total latency in ticks.

        The returned delay is queueing + transfer + fixed access latency.
        Callers (caches, the IOMMU, Border Control's Protection Table
        reads) yield this delay in their simulation processes.
        """
        (self._writes if write else self._reads).value += 1
        self._bytes.value += nbytes
        queue_and_transfer = self._channel.request(
            nbytes + self.config.access_overhead_bytes
        )
        return queue_and_transfer + self.latency_ticks

    def utilization(self, elapsed_ticks: int) -> float:
        return self._channel.utilization(elapsed_ticks)

    @property
    def bytes_served(self) -> int:
        """Data bytes moved (excluding the per-access overhead charge)."""
        return self._bytes.value

    def gpu_cycles(self, clock: Clock, elapsed_ticks: int) -> float:  # pragma: no cover
        """Convenience for reporting: elapsed time in a clock's cycles."""
        return clock.ticks_to_cycles(elapsed_ticks)
