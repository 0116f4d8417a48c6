"""Microbenchmarks of the core Border Control structures.

These measure the *simulator's* throughput on the hot operations — the
checks performed per accelerator request (Fig. 3c), Protection Table
insertions (Fig. 3b), and the discrete-event kernel itself — useful when
tuning the reproduction, and a regression guard for its performance.
"""

import random
import tracemalloc

from repro.core.bcc import BCCConfig, BorderControlCache
from repro.core.border_control import BorderControl
from repro.core.permissions import Perm
from repro.core.protection_table import ProtectionTable
from repro.mem.phys_memory import PhysicalMemory
from repro.sim.engine import Engine
from repro.vm.frame_allocator import FrameAllocator

MEM = 64 * 1024 * 1024


def _bc():
    phys = PhysicalMemory(MEM)
    allocator = FrameAllocator(phys)
    bc = BorderControl("gpu0", phys, allocator)
    bc.process_init(1)
    for ppn in range(0, 4096, 2):
        bc.insert_translation(ppn, Perm.RW)
    return bc


def test_border_check_hit_throughput(benchmark):
    bc = _bc()
    rng = random.Random(7)
    addrs = [rng.randrange(0, 4096) << 12 for _ in range(512)]

    def run():
        for addr in addrs:
            bc.check(addr, False)

    benchmark(run)


def test_protection_table_insertion_throughput(benchmark):
    bc = _bc()

    def run():
        for ppn in range(1024):
            bc.insert_translation(ppn, Perm.RW)

    benchmark(run)


def test_bcc_lookup_throughput(benchmark):
    phys = PhysicalMemory(MEM)
    table = ProtectionTable.allocate(phys, FrameAllocator(phys))
    bcc = BorderControlCache(BCCConfig())
    rng = random.Random(11)
    pages = [rng.randrange(0, 8192) for _ in range(512)]

    def run():
        for ppn in pages:
            bcc.lookup(ppn, table)

    benchmark(run)


def test_protection_table_bit_access(benchmark):
    phys = PhysicalMemory(MEM)
    table = ProtectionTable.allocate(phys, FrameAllocator(phys))

    def run():
        for ppn in range(0, 2048, 3):
            table.set(ppn, Perm.RW)
            table.get(ppn)

    benchmark(run)


def test_eager_mmap_throughput(benchmark):
    """Eager 2048-page ``Kernel.mmap`` into a fresh process: frame
    allocation, leaf-at-a-time PTE installs and frame zeroing, all in
    simulated physical memory (what every generated trace pays)."""
    from repro.osmodel.kernel import Kernel

    def fresh_process():
        kernel = Kernel(PhysicalMemory(MEM))
        return (kernel, kernel.create_process("bench")), {}

    def run(kernel, proc):
        kernel.mmap(proc, 2048)

    benchmark.pedantic(run, setup=fresh_process, rounds=20)


def test_page_walk_throughput(benchmark):
    """``PageTable.walk`` over mapped VPNs: four 8-byte PTE reads from
    simulated memory per walk (the ATS walker's functional half)."""
    from repro.osmodel.kernel import Kernel

    kernel = Kernel(PhysicalMemory(MEM))
    proc = kernel.create_process("bench")
    start_vpn = kernel.mmap(proc, 2048) >> 12
    table = proc.page_table
    rng = random.Random(13)
    vpns = [start_vpn + rng.randrange(2048) for _ in range(512)]

    def run():
        for vpn in vpns:
            table.walk(vpn)

    benchmark(run)


def test_event_kernel_dispatch(benchmark):
    def run():
        engine = Engine()

        def proc():
            for _ in range(200):
                yield 10

        for _ in range(10):
            engine.process(proc())
        engine.run()

    benchmark(run)


def test_full_small_simulation(benchmark):
    """End-to-end simulator speed: one tiny kernel on a BC system."""
    from repro.sim.config import GPUThreading, SafetyMode
    from repro.sim.runner import run_single

    def run():
        return run_single(
            "bfs", SafetyMode.BC_BCC, GPUThreading.MODERATELY, ops_scale=0.05
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.mem_ops > 0


def test_translation_path_small_simulation(benchmark):
    """The trusted-side translation path: a small BC-BCC cell with a
    permission downgrade every 250 GPU cycles, so every shootdown makes
    the next ops walk or hit the ATS's L2 TLB again (the ``downgrades``
    shape of ``bench/run.py``)."""
    from repro.sim.config import GPUThreading, SafetyMode
    from repro.sim.runner import run_single

    def run():
        return run_single(
            "bfs", SafetyMode.BC_BCC, GPUThreading.MODERATELY, ops_scale=0.05,
            downgrade_interval_cycles=250,
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.downgrades > 0
    assert result.ats_translations > result.ats_walks > 0


def test_cache_hit_service_throughput(benchmark):
    """L1-hit servicing through the engine (the per-access fast path)."""
    from repro.mem.cache import Cache, CacheConfig
    from repro.mem.port import MemoryPort
    from repro.sim.stats import StatDomain

    class _ZeroPort(MemoryPort):
        def access(self, addr, size, write, data=None):
            return b"\x00" * size
            yield  # pragma: no cover

    engine = Engine()
    cache = Cache(
        engine,
        CacheConfig("bench-l1", 16 * 1024, 4, hit_latency_ticks=1),
        _ZeroPort(),
        StatDomain("bench"),
    )
    addrs = [(i % 64) * 128 for i in range(4096)]

    def run():
        def driver():
            for addr in addrs:
                yield from cache.access(addr, 8, False)

        engine.run_process(driver())

    benchmark(run)


def test_bandwidth_server_accounting(benchmark):
    """Integer-picosecond reservation arithmetic on the DRAM channel."""
    from repro.sim.clock import TICKS_PER_SECOND
    from repro.sim.engine import BandwidthServer

    engine = Engine()
    server = BandwidthServer(engine, 180e9, TICKS_PER_SECOND)

    def run():
        for _ in range(8192):
            server.request(128)

    benchmark(run)


def test_event_single_waiter_fast_path(benchmark):
    """Chains of one-waiter events — the dominant Event shape on the
    memory path (each op process is waited on by exactly one parent)."""

    def run():
        engine = Engine()

        def child():
            yield 1
            return 42

        def parent():
            for _ in range(200):
                yield engine.process(child())

        for _ in range(10):
            engine.process(parent())
        engine.run()

    benchmark(run)


def test_wavefront_batched_replay(benchmark):
    """A mostly L1-hit hotspot cell (BC-BCC, highly threaded): times the
    per-op wavefront loop in GPU._run_wavefront, which spawns one
    ``_do_op`` process per memory op. The name is kept so the perf-smoke
    history stays comparable."""
    from repro.sim.config import GPUThreading, SafetyMode
    from repro.sim.runner import run_single

    def run():
        return run_single(
            "hotspot", SafetyMode.BC_BCC, GPUThreading.HIGHLY, ops_scale=0.05
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.mem_ops > 0


def test_trace_footprint(benchmark):
    """A full-scale bfs highly threaded trace (102,400 ops) stays under
    3 MB: ``generate_trace`` packs each wavefront into flat arrays, not
    one tuple of Python ints per op (11.2 MB). The measured allocation
    includes the mmap the call makes for the workload's buffers."""
    from repro.sim.config import GPUThreading, SystemConfig
    from repro.sim.system import System
    from repro.workloads.base import clear_trace_cache, generate_trace
    from repro.workloads.registry import get_workload

    def generate():
        clear_trace_cache()
        system = System(SystemConfig().with_threading(GPUThreading.HIGHLY))
        proc = system.new_process("bfs")
        tracemalloc.start()
        try:
            trace = generate_trace(
                get_workload("bfs"), system.kernel, proc, GPUThreading.HIGHLY
            )
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            clear_trace_cache()
        return trace.total_mem_ops, held

    ops, held = benchmark.pedantic(generate, rounds=1, iterations=1)
    assert ops == 102_400
    assert held < 3 * 1024 * 1024
