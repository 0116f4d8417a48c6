"""The benchmark's workloads: which cells each one runs, and how results are checked.

An item is what one user request asks for: one workload simulated under
every configuration the benchmark workload compares. In process that is
a few ``run_single`` calls; for ``service-jobs`` it is one fig4 sweep job.
Item ``i`` of a run uses workload ``i`` of the rotation and seed
``S + i``. Timed items never share a seed because
``repro.workloads.base`` memoizes generated traces by seed: a repeated
seed would time a memo hit and leave trace generation out. Within an
item the configurations share one trace, as they do in a figure sweep.

This module imports nothing from ``repro`` at module level, so the
orchestrator can describe workloads without paying the simulator's
import cost.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

RODINIA = ("backprop", "bfs", "hotspot", "lud", "nn", "nw", "pathfinder")

HIGHLY = "highly-threaded"
MODERATELY = "moderately-threaded"

ATS_ONLY = "ats-only-iommu"
FULL_IOMMU = "full-iommu"
CAPI_LIKE = "capi-like"
BC_NO_BCC = "border-control-nobcc"
BC_BCC = "border-control-bcc"
#: Fig. 4's grid order for one workload (``repro.experiments.fig4.grid``).
FIG4_MODES = (ATS_ONLY, FULL_IOMMU, CAPI_LIKE, BC_NO_BCC, BC_BCC)

#: Result fields that are zero on every benign, fault-free cell.
ZERO_FIELDS = (
    "blocked_ops",
    "violations",
    "faults_injected",
    "retries",
    "watchdog_fires",
    "quarantines",
    "recoveries_attempted",
    "recoveries_succeeded",
    "fallback_executions",
    "recovery_ticks",
    "stale_epoch_rejections",
)


@dataclass(frozen=True)
class CellSpec:
    """One simulation cell: the arguments of one ``run_single`` call."""

    workload: str
    safety: str
    threading: str
    seed: int
    ops_scale: float
    downgrade_interval_cycles: Optional[float] = None

    def run(self):
        """Simulate this cell in the calling process; returns a ``RunResult``."""
        from repro.sim.config import GPUThreading, SafetyMode
        from repro.sim.runner import run_single

        return run_single(
            self.workload,
            SafetyMode(self.safety),
            GPUThreading(self.threading),
            seed=self.seed,
            ops_scale=self.ops_scale,
            downgrade_interval_cycles=self.downgrade_interval_cycles,
        )


@dataclass(frozen=True)
class Workload:
    """A named input set: a seeded sequence of items and its sizes."""

    name: str
    why: str
    #: Item ``i`` simulates ``workloads[i % len(workloads)]`` ...
    workloads: Sequence[str]
    #: ... under each of these safety modes, in this order.
    modes: Sequence[str]
    threading: str
    ops_scale: float
    smoke_ops_scale: float
    #: Every run completes at least this many items, even past
    #: ``--seconds``; the digest and the per-layer counts cover them.
    min_items: int
    smoke_items: int
    downgrade_interval_cycles: Optional[float] = None
    service: bool = False

    @property
    def period(self) -> int:
        """Items after which the rotation of workloads repeats.

        Runs stop only at a multiple of it, so that every run times the
        same mix of items however far it got.
        """
        return len(self.workloads)

    def configs(self) -> List[tuple]:
        """Distinct ``(safety, threading)`` pairs its cells simulate."""
        return [(mode, self.threading) for mode in self.modes]

    def item_cells(self, seed: int, index: int, smoke: bool = False) -> List[CellSpec]:
        """The cells of item ``index`` of a run with base seed ``seed``."""
        workload = self.workloads[index % len(self.workloads)]
        scale = self.smoke_ops_scale if smoke else self.ops_scale
        return [
            CellSpec(workload, mode, self.threading, seed + index, scale,
                     self.downgrade_interval_cycles)
            for mode in self.modes
        ]

    def job_params(self, seed: int, index: int, smoke: bool = False) -> dict:
        """Params of the sweep job whose fig4 grid is ``item_cells(seed, index)``."""
        cell = self.item_cells(seed, index, smoke)[0]
        return {
            "grids": ["fig4"],
            "workloads": [cell.workload],
            "threading": cell.threading,
            "seed": cell.seed,
            "ops_scale": cell.ops_scale,
        }

    def warmup_seed(self, seed: int) -> int:
        """Seed of the untimed warm-up item: outside ``[S, S + n)``."""
        return seed - 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig4-ref",
            why=(
                "the historic fig4 reference cell (bfs, BC-BCC, highly threaded): "
                "mostly L1 TLB+cache read hits, so the engine, L1 fast path, "
                "caches and trace generation dominate"
            ),
            workloads=("bfs",),
            modes=(BC_BCC,),
            threading=HIGHLY,
            ops_scale=1.0,
            smoke_ops_scale=0.05,
            min_items=4,
            smoke_items=2,
        ),
        Workload(
            name="border-reads",
            why=(
                "7 workloads x full-IOMMU, CAPI-like, BC-noBCC, moderately threaded: "
                "translation, Protection Table reads, page walks and DRAM dominate; "
                "little L1 fast path"
            ),
            workloads=RODINIA,
            modes=(FULL_IOMMU, CAPI_LIKE, BC_NO_BCC),
            threading=MODERATELY,
            ops_scale=1.0,
            smoke_ops_scale=0.1,
            min_items=7,
            smoke_items=7,
        ),
        Workload(
            name="downgrades",
            why=(
                "7 workloads x BC-BCC, ATS-only with a permission downgrade every "
                "250 cycles: shootdowns, flushes, Protection Table and BCC writes"
            ),
            workloads=RODINIA,
            modes=(BC_BCC, ATS_ONLY),
            threading=MODERATELY,
            ops_scale=0.5,
            smoke_ops_scale=0.1,
            min_items=7,
            smoke_items=7,
            downgrade_interval_cycles=250.0,
        ),
        Workload(
            name="service-jobs",
            why=(
                "closed loop of 5-cell fig4 sweep jobs over HTTP to border-control "
                "serve, every 4th followed by a resubmit: wire, scheduler, pool, "
                "journal and result cache"
            ),
            workloads=RODINIA,
            modes=FIG4_MODES,
            threading=MODERATELY,
            ops_scale=0.25,
            smoke_ops_scale=0.05,
            min_items=7,
            smoke_items=7,
            service=True,
        ),
    )
}

#: A cold job is followed by a resubmit of an earlier one every this many.
RESUBMIT_EVERY = 4
#: Worker processes each service sweep job asks for (the box has 2 cores).
JOB_WORKERS = 2


def result_dict(result) -> dict:
    """A ``RunResult`` as the JSON object the service returns for it."""
    import dataclasses
    import enum

    out = {}
    for field in dataclasses.fields(result):
        if field.name == "border_trace":
            continue
        value = getattr(result, field.name)
        out[field.name] = value.value if isinstance(value, enum.Enum) else value
    return out


def digest_of(payload) -> str:
    """Short content hash of a JSON-able value (canonical key order)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def item_digest(cell_results: Sequence[dict]) -> str:
    """Digest of one item: its cells' results in grid order."""
    return digest_of([digest_of(result) for result in cell_results])


def run_digest(item_digests: Sequence[str]) -> str:
    """``sim_digest``: one hash over the items every run completes."""
    return digest_of(list(item_digests))


def expected_mem_ops(cell: CellSpec) -> int:
    """Memory ops the generated trace of ``cell`` issues."""
    from repro.sim.config import GPUThreading
    from repro.workloads.registry import get_workload

    threading = GPUThreading(cell.threading)
    per_wf = max(1, int(get_workload(cell.workload).ops_per_wavefront * cell.ops_scale))
    return threading.num_cus * threading.wavefronts_per_cu * per_wf


def check_cell(cell: CellSpec, result: dict) -> List[str]:
    """Model invariants one benign cell's result must satisfy (empty == ok).

    These hold for every seed, so they check runs whose seed has no
    pinned digest. They restate the model's structure, not its numbers:
    every op completes, nothing is blocked, each structure is used
    exactly when the configuration has it.
    """
    from repro.sim.config import SafetyMode

    mode = SafetyMode(cell.safety)
    problems = []

    def need(condition: bool, what: str) -> None:
        if not condition:
            problems.append(f"{cell.workload}/{cell.safety}/seed {cell.seed}: {what}")

    for key in ("workload", "safety", "threading"):
        need(result.get(key) == getattr(cell, key), f"{key} is {result.get(key)!r}")
    need(result["mem_ops"] == expected_mem_ops(cell),
         f"mem_ops {result['mem_ops']} != {expected_mem_ops(cell)}")
    for key in ZERO_FIELDS:
        need(result[key] == 0, f"{key} = {result[key]}")
    for key in ("ticks", "gpu_cycles", "dram_bytes", "ats_translations", "ats_walks"):
        need(result[key] > 0, f"{key} = {result[key]}")
    l1 = result["l1_hits"] + result["l1_misses"]
    if mode.has_accel_l1_cache:
        need(l1 == result["mem_ops"], f"L1 accesses {l1} != mem_ops")
    else:
        need(l1 == 0, f"L1 accesses {l1} without an accelerator L1")
    if not mode.has_accel_l1_tlb:
        need(result["ats_translations"] == result["mem_ops"],
             "an op was not translated without an accelerator TLB")
    need((result["border_checks"] > 0) == mode.uses_border_control,
         f"border_checks = {result['border_checks']}")
    bcc = result["bcc_hits"] + result["bcc_misses"]
    need((bcc > 0) == (mode is SafetyMode.BC_BCC), f"BCC lookups = {bcc}")
    need((result["downgrades"] > 0) == (cell.downgrade_interval_cycles is not None),
         f"downgrades = {result['downgrades']}")
    return problems
