"""Determinism goldens for the simulation-core fast paths.

The perf work (zero-allocation event loop, batched trace replay, hot-path
caches, integer-picosecond bandwidth accounting) must change *wall-clock*
time only — never simulated behavior. These tests pin that down:

* ``tests/goldens/core_fastpath.json`` holds :class:`RunResult` dumps,
  digests of Fig. 6's border-crossing streams and chaos/recovery
  signatures recorded with the pre-optimization core
  (regenerate only deliberately, via ``python tools/record_goldens.py``);
* every golden cell is re-run here and compared field-by-field;
* a small fig4 sweep goes through :func:`repro.sweep.verify_identical`
  so the serial and parallel executions of the optimized core agree.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.chaos import run_chaos_single
from repro.experiments.common import _result_to_dict
from repro.faults import FaultKind
from repro.recovery import run_recovery_single
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import run_single

from tests.util import small_config, tiny_spec

GOLDEN_PATH = Path(__file__).parent / "goldens" / "core_fastpath.json"

#: One fig4-style cell per GPU configuration and safety mode (plus a
#: no-border baseline and a second access pattern), small enough for CI
#: but large enough to exercise TLB/L1/L2/BCC fast paths, misses, and
#: writebacks. The last field is ``downgrade_interval_cycles``: the
#: BC-BCC / ATS-only pair with a downgrade every 250 cycles pins the
#: shootdown -> flush -> re-walk path.
FIG4_CELLS = [
    ("bfs", SafetyMode.BC_BCC, GPUThreading.HIGHLY, None),
    ("bfs", SafetyMode.BC_BCC, GPUThreading.MODERATELY, None),
    ("bfs", SafetyMode.ATS_ONLY, GPUThreading.HIGHLY, None),
    ("hotspot", SafetyMode.BC_BCC, GPUThreading.HIGHLY, None),
    ("bfs", SafetyMode.FULL_IOMMU, GPUThreading.MODERATELY, None),
    ("bfs", SafetyMode.CAPI_LIKE, GPUThreading.MODERATELY, None),
    ("bfs", SafetyMode.BC_NO_BCC, GPUThreading.MODERATELY, None),
    ("bfs", SafetyMode.BC_BCC, GPUThreading.MODERATELY, 250),
    ("bfs", SafetyMode.ATS_ONLY, GPUThreading.MODERATELY, 250),
]

#: Cells whose ``record_border=True`` crossing stream (Fig. 6's input) is
#: pinned by length and sha256. The downgrade cell covers the flush
#: writebacks, which also cross the border.
BORDER_TRACE_CELLS = [
    ("bfs", SafetyMode.BC_BCC, GPUThreading.HIGHLY, None),
    ("bfs", SafetyMode.BC_NO_BCC, GPUThreading.MODERATELY, None),
    ("bfs", SafetyMode.BC_BCC, GPUThreading.MODERATELY, 250),
]

FIG4_SEED = 1234
FIG4_OPS_SCALE = 0.25

CHAOS_SEED = 23
RECOVERY_SEED = 5


def fig4_cell_key(workload: str, safety: SafetyMode, threading: GPUThreading,
                  downgrade_interval_cycles=None) -> str:
    key = f"{workload}/{safety.value}/{threading.value}"
    if downgrade_interval_cycles is not None:
        key += f"/downgrade-{downgrade_interval_cycles}"
    return key


def run_fig4_cell(workload: str, safety: SafetyMode, threading: GPUThreading,
                  downgrade_interval_cycles=None):
    return run_single(
        workload, safety, threading, seed=FIG4_SEED, ops_scale=FIG4_OPS_SCALE,
        downgrade_interval_cycles=downgrade_interval_cycles,
    )


def border_trace_digest(workload: str, safety: SafetyMode,
                        threading: GPUThreading,
                        downgrade_interval_cycles=None) -> dict:
    """Length and sha256 of one cell's recorded (ppn, is_write) stream."""
    trace = run_single(
        workload, safety, threading, seed=FIG4_SEED, ops_scale=FIG4_OPS_SCALE,
        downgrade_interval_cycles=downgrade_interval_cycles,
        record_border=True,
    ).border_trace
    encoded = json.dumps(trace, separators=(",", ":")).encode()
    return {"length": len(trace), "sha256": hashlib.sha256(encoded).hexdigest()}


def run_chaos_cell():
    return run_chaos_single(
        "tiny",
        list(FaultKind),
        seed=CHAOS_SEED,
        workload_spec=tiny_spec(),
        config=small_config(),
    )


def run_recovery_cell():
    return run_recovery_single(
        "tiny",
        "reset-replay",
        seed=RECOVERY_SEED,
        workload_spec=tiny_spec(),
        config=small_config(),
    )


def record_goldens() -> dict:
    """Run every golden cell; returns the payload for the goldens file.

    Invoked by ``tools/record_goldens.py`` — never from the tests, which
    only ever *compare* against the committed snapshot.
    """
    payload = {
        "schema": "core-fastpath-goldens-v1",
        "fig4": {
            fig4_cell_key(*cell): _result_to_dict(run_fig4_cell(*cell))
            for cell in FIG4_CELLS
        },
        "border_trace": {
            fig4_cell_key(*cell): border_trace_digest(*cell)
            for cell in BORDER_TRACE_CELLS
        },
        "chaos_signature": run_chaos_cell().signature(),
        "recovery_signature": run_recovery_cell().signature(),
    }
    # JSON round-trip so the recorded form matches what the tests load.
    return json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def goldens():
    if not GOLDEN_PATH.exists():  # pragma: no cover
        pytest.skip("goldens not recorded (run tools/record_goldens.py)")
    return json.loads(GOLDEN_PATH.read_text())


def _jsonify(value):
    return json.loads(json.dumps(value))


@pytest.mark.parametrize(
    "cell", FIG4_CELLS, ids=[fig4_cell_key(*cell) for cell in FIG4_CELLS],
)
def test_fig4_cell_matches_pre_optimization_golden(goldens, cell):
    result = run_fig4_cell(*cell)
    expected = goldens["fig4"][fig4_cell_key(*cell)]
    actual = _jsonify(_result_to_dict(result))
    # Field-by-field comparison so a mismatch names the drifted field.
    for field_name, expected_value in expected.items():
        assert actual[field_name] == expected_value, (
            f"RunResult.{field_name} drifted from the pre-optimization "
            f"golden: {actual[field_name]!r} != {expected_value!r}"
        )
    assert set(actual) == set(expected)


@pytest.mark.parametrize(
    "cell", BORDER_TRACE_CELLS,
    ids=[fig4_cell_key(*cell) for cell in BORDER_TRACE_CELLS],
)
def test_border_trace_matches_golden(goldens, cell):
    """The crossing stream Fig. 6 replays is pinned bit for bit."""
    expected = goldens["border_trace"][fig4_cell_key(*cell)]
    assert border_trace_digest(*cell) == expected


def test_downgrade_cell_builds_one_translation_record_per_walk(monkeypatch):
    """On the golden downgrade cell, where every shootdown makes the next
    ops translate again, a ``TLBEntry`` is built once per ATS page walk:
    the ATS returns the L2 TLB's own entry (the one a walk inserted, or
    the one an L2 hit found), and the L1 TLBs cache that same object."""
    from repro.iommu.ats import ATS
    from repro.vm.tlb import TLB, TLBEntry

    built = []
    l2_entries = []  # what the ATS's L2 TLB was given (kept alive: ids stay unique)
    l1_entries = []
    returned = []
    entry_init = TLBEntry.__init__
    tlb_insert = TLB.insert
    translate = ATS.translate

    def counting_init(self, *args, **kwargs):
        built.append(self)
        entry_init(self, *args, **kwargs)

    def logging_insert(self, entry):
        (l2_entries if self.name == "iommu-l2-tlb" else l1_entries).append(entry)
        tlb_insert(self, entry)

    def logging_translate(self, *args, **kwargs):
        entry = yield from translate(self, *args, **kwargs)
        returned.append(entry)
        return entry

    monkeypatch.setattr(TLBEntry, "__init__", counting_init)
    monkeypatch.setattr(TLB, "insert", logging_insert)
    monkeypatch.setattr(ATS, "translate", logging_translate)
    result = run_fig4_cell("bfs", SafetyMode.BC_BCC, GPUThreading.MODERATELY, 250)

    assert result.downgrades > 0
    assert len(built) == len(l2_entries) == result.ats_walks > 0
    assert len(returned) == result.ats_translations > result.ats_walks
    l2_ids = {id(entry) for entry in l2_entries}
    assert all(id(entry) in l2_ids for entry in returned)
    assert l1_entries and all(id(entry) in l2_ids for entry in l1_entries)


def test_chaos_run_matches_pre_optimization_golden(goldens):
    assert _jsonify(run_chaos_cell().signature()) == goldens["chaos_signature"]


def test_recovery_run_matches_pre_optimization_golden(goldens):
    assert _jsonify(run_recovery_cell().signature()) == goldens["recovery_signature"]


def test_verify_identical_over_small_sweep(tmp_path, monkeypatch):
    """Serial and 2-worker parallel sweeps agree bit-for-bit."""
    from repro.experiments import common
    from repro.sweep import grid_cells, run_sweep, verify_identical

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common.clear_cache()
    try:
        cells = grid_cells(
            "fig4", threading=GPUThreading.HIGHLY, workloads=["bfs"],
            ops_scale=0.1,
        )
        parallel = run_sweep(cells, workers=2)
        _serial, mismatches = verify_identical(cells, parallel)
    finally:
        common.clear_cache()
    assert not mismatches, mismatches
