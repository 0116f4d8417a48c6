"""Builds a complete simulated system for one configuration.

``System`` wires the substrate exactly as Fig. 1/Fig. 2 describe for the
chosen :class:`~repro.sim.config.SafetyMode`:

* **ATS-only IOMMU** (unsafe baseline): per-CU L1 TLBs and write-through
  L1 caches, shared write-back L2, raw path to memory.
* **Full IOMMU**: no accelerator structures; every request translated and
  checked at the IOMMU.
* **CAPI-like**: trusted TLB and trusted shared L2 across a link.
* **Border Control (noBCC / BCC)**: the baseline hierarchy with a
  :class:`~repro.core.border_port.BorderControlPort` spliced between the
  accelerator L2 and the memory controller.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, List, Optional

from repro.accel.gpu import GPU, GPUGeometry, KernelTrace
from repro.accel.paths import CachedHierarchyPath
from repro.core.border_control import BorderControl
from repro.core.border_port import BorderControlPort
from repro.iommu.ats import ATS, ATSConfig
from repro.iommu.capi import CAPILikePath
from repro.iommu.iommu import FullIOMMUPath
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAM, DRAMConfig
from repro.mem.phys_memory import PhysicalMemory
from repro.mem.port import MemoryController, MemoryPort
from repro.osmodel.kernel import Kernel, ViolationPolicy
from repro.osmodel.process import Process
from repro.sim.clock import Clock
from repro.sim.config import SafetyMode, SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import StatDomain
from repro.vm.tlb import TLB

if TYPE_CHECKING:
    from repro.cpu.core import CPUCore

__all__ = ["System"]

GPU_ID = "gpu0"


class System:
    """One fully wired CPU + GPU + memory + OS simulation instance."""

    def __init__(
        self,
        config: SystemConfig,
        violation_policy: ViolationPolicy = ViolationPolicy.KILL_PROCESS,
    ) -> None:
        self.config = config
        self.engine = Engine()
        self.cpu_clock = Clock(config.cpu_freq_hz)
        self.gpu_clock = Clock(config.gpu_freq_hz)
        self.stats = StatDomain("system")
        self.phys = PhysicalMemory(config.phys_mem_bytes)
        self.dram = DRAM(
            self.engine,
            DRAMConfig(
                peak_bandwidth_bytes_per_s=config.peak_bandwidth_bytes_per_s,
                access_latency_ns=config.dram_latency_ns,
            ),
            self.stats.child("dram"),
        )
        self.memctl = MemoryController(self.phys, self.dram)

        bcc_config = config.bcc if config.safety is SafetyMode.BC_BCC else None
        self.kernel = Kernel(
            self.phys,
            engine=self.engine,
            bcc_config=bcc_config,
            violation_policy=violation_policy,
            selective_downgrade=config.selective_downgrade,
            stats=self.stats.child("kernel"),
        )
        # The machine's event stream (repro.sim.tracing), created by its
        # kernel and shared by the sandboxes and front ends.
        self.events = self.kernel.events

        self.kernel.downgrade_drain_ticks = self._ticks(
            config.timing.downgrade_drain_cycles
        )
        self.kernel.quarantine_backoff_cap = config.quarantine_backoff_cap
        self.kernel.violation_storm_threshold = config.violation_storm_threshold
        self.ats = self._build_ats()
        self.kernel.register_shootdown_listener(self.ats)

        self.border_control: Optional[BorderControl] = None
        self.border_port: Optional[BorderControlPort] = None
        self.capi: Optional[CAPILikePath] = None
        self.full_iommu: Optional[FullIOMMUPath] = None
        self.gpu_l1_caches: List[Cache] = []
        self.gpu_l1_tlbs: List[TLB] = []
        self.gpu_l2: Optional[Cache] = None

        path = self._build_path()
        self.gpu = GPU(
            self.engine,
            self.gpu_clock,
            GPUGeometry(
                num_cus=config.num_cus, l1_tlb_entries=config.gpu_l1_tlb_entries
            ),
            path,
            stats=self.stats.child("gpu"),
            accel_id=GPU_ID,
        )
        # Epoch fence wiring (recovery): border and ATS compare the GPU's
        # believed attach epoch against the sandbox's authoritative one.
        # Both hooks read ``self.gpu`` dynamically because the chaos
        # harness replaces the GPU object after construction; ``close``
        # unhooks them.
        if self.border_port is not None:
            self.border_port.epoch_source = lambda: self.gpu.epoch
            self.ats.epoch_gate = (
                lambda accel_id: accel_id != GPU_ID
                or self.border_control is None
                or self.gpu.epoch >= self.border_control.epoch
            )

    @cached_property
    def cpu(self) -> "CPUCore":
        """The trusted CPU core (Table 3: 64 KB L1, 2 MB L2 @ 3 GHz); it
        shares the DRAM channel with the accelerator.

        Built the first time it is read: only CPU programs use it, and
        its two caches' sets would be most of a GPU cell's System.
        """
        from repro.cpu.core import CPUCore

        cpu = CPUCore(
            self.engine,
            self.cpu_clock,
            self.kernel,
            self.memctl,
            stats=self.stats.child("cpu"),
        )
        self.kernel.register_shootdown_listener(cpu)
        return cpu

    def close(self) -> None:
        """Unhook the back-edges that make a wired system a reference cycle.

        The epoch hooks point back at this system, the event stream the
        kernel's sandboxes and front ends emit on holds the kernel's
        violation policy and every observer, and a CPU core, once built,
        is the kernel's shootdown listener while it holds the kernel.
        Until they are gone a finished system, with its caches, page
        tables and frames, waits for the cyclic GC; after ``close``
        reference counting frees it as soon as the last outside reference
        goes. Call it once the system is done running: a closed system no
        longer fences stale epochs, reports violations to the OS or to any
        observer, or shoots down the CPU's TLB.
        """
        if self.border_port is not None:
            self.border_port.epoch_source = None
            self.ats.epoch_gate = None
        self.events.clear()
        cpu = self.__dict__.get("cpu")  # set only once :attr:`cpu` was read
        if cpu is not None:
            self.kernel._shootdown_listeners.remove(cpu)

    # -- component builders ------------------------------------------------

    def _ticks(self, gpu_cycles: float) -> int:
        return self.gpu_clock.cycles_to_ticks(gpu_cycles)

    def _build_ats(self) -> ATS:
        timing = self.config.timing
        mode = self.config.safety
        if mode is SafetyMode.FULL_IOMMU:
            request, tlb_hit = 0.0, timing.iommu_l2_tlb_cycles
        elif mode is SafetyMode.CAPI_LIKE:
            # The CAPI-like unit's TLB sits next to the trusted cache, so
            # its hit path is as cheap as the IOMMU's internal lookup.
            request, tlb_hit = timing.capi_ats_request_cycles, timing.capi_tlb_cycles
        else:
            request, tlb_hit = timing.ats_request_cycles, timing.l2_tlb_hit_cycles
        return ATS(
            self.engine,
            self.dram,
            ATSConfig(
                l2_tlb_entries=self.config.iommu_l2_tlb_entries,
                request_latency_ticks=self._ticks(request),
                l2_tlb_latency_ticks=self._ticks(tlb_hit),
            ),
            stats=self.stats.child("ats"),
        )

    def _build_path(self):
        mode = self.config.safety
        if mode is SafetyMode.FULL_IOMMU:
            self.full_iommu = FullIOMMUPath(
                self.ats,
                self.memctl,
                processing_latency_ticks=self._ticks(
                    self.config.timing.iommu_request_cycles
                ),
                stats=self.stats.child("full_iommu"),
                accel_id=GPU_ID,
                events=self.events,
            )
            return self.full_iommu

        if mode is SafetyMode.CAPI_LIKE:
            trusted_l2 = Cache(
                self.engine,
                CacheConfig(
                    name="capi-l2",
                    size_bytes=self.config.gpu_l2_cache_bytes,
                    associativity=self.config.gpu_l2_assoc,
                    hit_latency_ticks=self._ticks(
                        self.config.timing.capi_l2_hit_cycles
                    ),
                ),
                self.memctl,
                self.stats.child("capi_l2"),
            )
            self.gpu_l2 = trusted_l2
            self.capi = CAPILikePath(
                self.ats,
                trusted_l2,
                link_latency_ticks=self._ticks(self.config.timing.capi_link_cycles),
                stats=self.stats.child("capi"),
                accel_id=GPU_ID,
                events=self.events,
            )
            return self.capi

        # Cached hierarchy: unsafe baseline or Border Control.
        below_l2: MemoryPort = self.memctl
        if mode.uses_border_control:
            self.border_control = self.kernel.sandboxes.border_control_for(GPU_ID)
            bcc_latency = (
                self.config.timing.bcc_cycles if mode is SafetyMode.BC_BCC else 0.0
            )
            self.border_port = BorderControlPort(
                self.engine,
                self.border_control,
                self.dram,
                self.memctl,
                bcc_latency_ticks=self._ticks(bcc_latency),
                pt_latency_ticks=self._ticks(
                    self.config.timing.protection_table_cycles
                ),
                pt_fetch_bytes=128 if mode is SafetyMode.BC_BCC else 8,
                stats=self.stats.child("border_port"),
            )
            below_l2 = self.border_port

        self.gpu_l2 = Cache(
            self.engine,
            CacheConfig(
                name="gpu-l2",
                size_bytes=self.config.gpu_l2_cache_bytes,
                associativity=self.config.gpu_l2_assoc,
                hit_latency_ticks=self._ticks(self.config.timing.l2_hit_cycles),
            ),
            below_l2,
            self.stats.child("gpu_l2"),
        )
        for cu in range(self.config.num_cus):
            self.gpu_l1_caches.append(
                Cache(
                    self.engine,
                    CacheConfig(
                        name=f"gpu-l1-{cu}",
                        size_bytes=self.config.gpu_l1_cache_bytes,
                        associativity=self.config.gpu_l1_assoc,
                        hit_latency_ticks=self._ticks(
                            self.config.timing.l1_hit_cycles
                        ),
                        write_back=False,
                        write_allocate=False,
                    ),
                    self.gpu_l2,
                    self.stats.child(f"gpu_l1_{cu}"),
                )
            )
            self.gpu_l1_tlbs.append(
                TLB(
                    f"gpu-l1-tlb-{cu}",
                    self.config.gpu_l1_tlb_entries,
                    self.stats.child(f"gpu_l1_tlb_{cu}"),
                )
            )
        return CachedHierarchyPath(
            GPU_ID,
            self.ats,
            self.gpu_l1_tlbs,
            self.gpu_l1_caches,
            self.gpu_l2,
            stats=self.stats.child("gpu_path"),
        )

    # -- process/GPU plumbing ------------------------------------------------

    def new_process(self, name: str) -> Process:
        return self.kernel.create_process(name)

    def attach_process(self, proc: Process) -> None:
        """Give a process the GPU (Fig. 3a under Border Control configs)."""
        sandboxed = self.config.safety.uses_border_control
        sandbox = self.kernel.attach_accelerator(proc, self.gpu, sandboxed=sandboxed)
        self.ats.register_address_space(proc.asid, proc.page_table)
        self.ats.allow(GPU_ID, proc.asid)
        if sandbox is not None:
            self.ats.attach_border_control(GPU_ID, sandbox)

    def detach_process(self, proc: Process) -> None:
        self.kernel.detach_accelerator(proc, self.gpu)
        self.ats.disallow(GPU_ID, proc.asid)

    def run_kernel(self, proc: Process, trace: KernelTrace) -> int:
        """Run one GPU kernel to completion; returns elapsed ticks."""
        return self.gpu.run_kernel(proc.asid, trace)

    # -- reporting --------------------------------------------------------------

    def border_checks(self) -> int:
        return self.border_control.checks if self.border_control else 0

    def describe(self) -> str:
        return self.config.describe()
