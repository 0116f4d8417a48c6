"""The L1-hit fast path against the per-op generator oracle.

``GPU._fast_forward`` replays runs of L1 TLB + L1 cache read hits without
spawning an op process per access. It must be *bit-identical* to the
per-op path on every observable: RunResult counters, violation
sequences, final tick, and the full per-component stats tree.

The oracle is the same simulator with ``CachedHierarchyPath.fast_read``
set to ``None``: ``_run_wavefront`` reads it with ``getattr(..., None)``,
so every op then runs through ``_do_op`` and the cache generators. These
tests drive both through identical cells — including downgrade storms,
faulting (rogue) accesses, writes, and hand-built traces with
horizon-violating interleavings — and compare field by field.

Generated workload cells run 16 wavefronts per CU, so another actor is
almost always due within one hit latency and the fast path seldom
opens. The hand-built traces are what drive it: long compute gaps
followed by runs of hot-block reads.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from repro.accel.gpu import KernelTrace
from repro.accel.paths import CachedHierarchyPath
from repro.core.permissions import Perm
from repro.experiments.common import _result_to_dict
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import run_single
from repro.workloads.base import WorkloadSpec

from tests.util import make_system, profile_settings, small_config, tiny_spec


def _oracle():
    """Context manager that turns the L1-hit fast path off."""
    return mock.patch.object(CachedHierarchyPath, "fast_read", None)


def _run_cell(**kwargs):
    params = dict(
        workload="tiny",
        safety=SafetyMode.BC_BCC,
        threading=GPUThreading.MODERATELY,
        seed=7,
        config=small_config(),
        spec=tiny_spec(),
    )
    params.update(kwargs)
    workload = params.pop("workload")
    safety = params.pop("safety")
    threading = params.pop("threading")
    return run_single(workload, safety, threading, **params)


def _assert_matches_oracle(**kwargs) -> None:
    fast = _result_to_dict(_run_cell(**kwargs))
    with _oracle():
        oracle = _result_to_dict(_run_cell(**kwargs))
    for field_name, expected in oracle.items():
        assert fast[field_name] == expected, (
            f"RunResult.{field_name} diverged between the fast path and "
            f"the per-op oracle: {fast[field_name]!r} != {expected!r}"
        )
    assert set(fast) == set(oracle)


class TestFastForwardMatchesOracle:
    @pytest.mark.parametrize("safety", list(SafetyMode))
    def test_every_safety_mode_is_bit_identical(self, safety):
        _assert_matches_oracle(safety=safety)

    def test_highly_threaded_cell(self):
        _assert_matches_oracle(threading=GPUThreading.HIGHLY, seed=1234)

    def test_downgrade_storm_is_bit_identical(self):
        # Downgrades quiesce the GPU mid-kernel: the fast path must
        # observe the same fences and produce the same violations.
        _assert_matches_oracle(downgrade_interval_cycles=2e4)

    def test_large_pages_cell(self):
        _assert_matches_oracle(large_pages=True)

    def test_fast_path_serves_hits(self):
        # The comparisons above are vacuous unless the fast path takes ops.
        served = []
        real = CachedHierarchyPath.fast_read

        def counting(self, cu_index, asid, vaddr):
            line = real(self, cu_index, asid, vaddr)
            if line is not None:
                served.append(vaddr)
            return line

        with mock.patch.object(CachedHierarchyPath, "fast_read", counting):
            _run_hand_built([_HOT_RUN])
        assert len(served) >= 50


spec_st = st.builds(
    WorkloadSpec,
    name=st.just("prop"),
    description=st.just("hypothesis cell"),
    footprint_bytes=st.sampled_from([256 * 1024, 1024 * 1024]),
    ops_per_wavefront=st.integers(min_value=1, max_value=24),
    write_fraction=st.sampled_from([0.0, 0.25, 0.9]),
    compute_gap_mean=st.sampled_from([0.0, 1.5, 40.0]),
    pattern=st.sampled_from(["stream", "random", "graph", "blocked"]),
    l1_reuse=st.sampled_from([0.0, 0.5, 0.9]),
    l2_reuse=st.sampled_from([0.0, 0.1]),
)


@profile_settings(scale=0.25)
@given(
    spec=spec_st,
    seed=st.integers(min_value=0, max_value=2**20),
    safety=st.sampled_from([SafetyMode.BC_BCC, SafetyMode.ATS_ONLY]),
    downgrade=st.sampled_from([None, 3e4]),
)
def test_random_cells_match_oracle(spec, seed, safety, downgrade):
    """Any small random cell — mixed gaps, reuse mixes, downgrade storms
    (which inject quiesces, shootdowns, and permission violations at
    horizon-violating times) — yields identical counters, violation
    sequences, and final tick with and without the fast path."""
    _assert_matches_oracle(
        workload=spec.name,
        safety=safety,
        seed=seed,
        spec=spec,
        downgrade_interval_cycles=downgrade,
    )


# Offsets into four hot blocks on two pages: after the first fill, reads
# of these are the L1 TLB + L1 cache hits the fast path replays.
_HOT = st.builds(
    lambda page, block, offset: page * 4096 + block * 128 + offset,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=8),
)

op_st = st.one_of(
    # compute gap only
    st.tuples(st.integers(min_value=0, max_value=50), st.none(), st.just(False)),
    # hot-block access
    st.tuples(st.integers(min_value=0, max_value=5), _HOT, st.booleans()),
    # in-footprint access (the mapping below is 1 MiB)
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=(1024 * 1024) - 4),
        st.booleans(),
    ),
    # rogue probe far outside any mapping: faults through the full path
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1 << 40, max_value=(1 << 40) + (1 << 20)),
        st.booleans(),
    ),
)

# The fast path opens only when a wavefront resumes from a sleep with no
# other actor due within one hit latency, i.e. after a long compute gap.
# This chunk is that shape: a long gap, then a run of hot-block reads.
hot_run_st = st.builds(
    lambda gap, reads: [(gap, None, False)] + reads,
    st.integers(min_value=100, max_value=400),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), _HOT, st.just(False)),
        min_size=1,
        max_size=60,
    ),
)

wavefront_st = st.lists(
    st.one_of(op_st.map(lambda op: [op]), hot_run_st), min_size=1, max_size=8
).map(lambda chunks: [op for chunk in chunks for op in chunk])


def _run_hand_built(wavefronts, downgrade_cycles=None):
    """Run one hand-built kernel on a single CU; optionally downgrade the
    process every ``downgrade_cycles`` GPU cycles while it runs."""
    system = make_system(SafetyMode.BC_BCC)
    proc = system.new_process("hand")
    system.attach_process(proc)
    # A real mapping so in-footprint accesses translate; rogue vaddrs
    # above 1 TiB never do and fault through the full path.
    base = system.kernel.mmap(proc, 256, Perm.RW)
    cu_ops = [
        [
            (
                gap,
                None
                if vaddr is None
                else (base + vaddr if vaddr < (1 << 39) else vaddr),
                write,
            )
            for (gap, vaddr, write) in wf
        ]
        for wf in wavefronts
    ]
    trace = KernelTrace(name="hand", cu_wavefronts=[cu_ops])
    done = system.gpu.launch(proc.asid, trace)
    if downgrade_cycles is not None:
        interval = system.gpu_clock.cycles_to_ticks(downgrade_cycles)

        def injector():
            while not done.triggered:
                yield interval
                if done.triggered:
                    break
                yield from system.kernel.downgrade_process_g(proc)

        system.engine.process(injector(), name="downgrade-injector")
    system.engine.run()
    assert done.triggered
    return system.engine.now, system.stats.as_dict()


# Warm two hot blocks, sleep, then a 60-read hit run. A fast path that
# ran past its horizon would count hits the oracle takes as post-flush
# misses (a downgrade due mid-run), or take issue slots ahead of a
# neighbor wavefront that wakes mid-run.
_HOT_RUN = (
    [(0, 0, False), (0, 128, False), (300, None, False)]
    + [(0, 128 * (k % 2), False) for k in range(60)]
)
_NEIGHBOR = [(0, 4096, False)] + [(60, None, False), (1, 4096, False)] * 10


@profile_settings(scale=0.5)
@given(
    wavefronts=st.lists(wavefront_st, min_size=1, max_size=3),
    downgrade=st.one_of(st.none(), st.integers(min_value=150, max_value=900)),
)
@example(wavefronts=[_HOT_RUN], downgrade=None)
@example(wavefronts=[_HOT_RUN], downgrade=370)
@example(wavefronts=[_HOT_RUN, _NEIGHBOR], downgrade=None)
def test_hand_built_traces_match_oracle(wavefronts, downgrade):
    """Hand-built traces — interleaved wavefronts, hot-block read runs,
    rogue out-of-mapping probes (translation faults), writes, gap
    patterns that violate the fast-forward horizon mid-run, and downgrade
    storms — reach the same final stats tree and the same final tick
    with and without the fast path."""
    fast = _run_hand_built(wavefronts, downgrade)
    with _oracle():
        oracle = _run_hand_built(wavefronts, downgrade)
    assert fast == oracle
