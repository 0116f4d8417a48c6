"""Machine-readable export of the experiment results.

``export_all`` writes one CSV per figure plus a ``summary.json`` with the
headline numbers — the artifact a downstream paper or plotting pipeline
would consume (the ASCII charts in :mod:`repro.analysis.ascii_chart` are
for terminals; these files are for matplotlib/pgfplots). Each figure is
one campaign of its own driver.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.experiments import fig4, fig5, fig6, fig7, storage
from repro.sim.config import GPUThreading, SafetyMode

__all__ = ["export_all", "write_csv"]


def write_csv(path: Union[str, Path], headers: List[str], rows: List[List]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def export_all(
    out_dir: Union[str, Path],
    quick: bool = False,
    seed: int = 1234,
    workloads: Optional[List[str]] = None,
    workers: Optional[int] = 1,
    allow_partial: bool = False,
    journal=None,
) -> Dict[str, str]:
    """Run every experiment and write CSV/JSON artifacts.

    ``workers``, ``allow_partial`` and ``journal`` go to every figure
    driver: ``workers`` > 1 (or ``None`` = all cores) runs each grid on
    a process pool, ``allow_partial`` writes empty CSV fields for failed
    cells instead of raising, and a journal makes the export resumable.
    Returns {artifact name: path written}.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ops_scale = 0.25 if quick else 1.0
    campaign = dict(
        workloads=workloads,
        seed=seed,
        ops_scale=ops_scale,
        workers=workers,
        allow_partial=allow_partial,
        journal=journal,
    )
    written: Dict[str, str] = {}
    summary: Dict[str, object] = {"quick": quick, "seed": seed}
    if allow_partial:
        summary["allow_partial"] = True

    # Figure 4: per-workload overheads, both GPU configurations.
    fig4_rows = []
    geomeans = {}
    for threading in (GPUThreading.HIGHLY, GPUThreading.MODERATELY):
        result = fig4.run(threading, **campaign)
        for mode in fig4.SAFETY_MODES:
            for name, overhead in result.overheads[mode].items():
                fig4_rows.append(
                    [
                        threading.value,
                        mode.value,
                        name,
                        "" if overhead is None else f"{overhead:.6f}",
                    ]
                )
            geomeans[f"{threading.value}/{mode.value}"] = result.geomean(mode)
    path = out / "fig4_runtime_overhead.csv"
    write_csv(path, ["gpu", "configuration", "workload", "overhead"], fig4_rows)
    written["fig4"] = str(path)
    summary["fig4_geomeans"] = geomeans

    # Figure 5: border requests per cycle.
    f5 = fig5.run(**campaign)
    path = out / "fig5_requests_per_cycle.csv"
    write_csv(
        path,
        ["workload", "requests_per_cycle"],
        [
            [n, "" if v is None else f"{v:.6f}"]
            for n, v in f5.requests_per_cycle.items()
        ],
    )
    written["fig5"] = str(path)
    summary["fig5_average"] = f5.average

    # Figure 6: BCC miss-ratio sweep.
    f6 = fig6.run(**campaign)
    f6_rows = []
    for ppe, line in sorted(f6.miss_ratio.items()):
        for size, ratio in zip(f6.sizes_bytes, line):
            f6_rows.append(
                [ppe, size, "" if ratio is None else f"{ratio:.6f}"]
            )
    path = out / "fig6_bcc_miss_ratio.csv"
    write_csv(path, ["pages_per_entry", "bcc_bytes", "miss_ratio"], f6_rows)
    written["fig6"] = str(path)

    # Figure 7: downgrade-rate sweep.
    f7 = fig7.run(**campaign)
    f7_rows = []
    for mode in (SafetyMode.ATS_ONLY, SafetyMode.BC_BCC):
        for threading in (GPUThreading.HIGHLY, GPUThreading.MODERATELY):
            for rate, overhead in zip(f7.rates, f7.series(mode, threading)):
                f7_rows.append(
                    [mode.value, threading.value, rate, f"{overhead:.8f}"]
                )
    path = out / "fig7_downgrade_overhead.csv"
    write_csv(path, ["configuration", "gpu", "downgrades_per_s", "overhead"], f7_rows)
    written["fig7"] = str(path)
    summary["fig7_cost_ratio_highly"] = f7.bc_to_baseline_cost_ratio(
        GPUThreading.HIGHLY
    )

    # Storage overheads.
    st = storage.run()
    summary["storage"] = {
        "table_bytes": st.table_bytes,
        "table_fraction": st.table_fraction,
        "bcc_bytes": st.bcc_bytes,
        "bcc_reach_bytes": st.bcc_reach_bytes,
    }

    path = out / "summary.json"
    path.write_text(json.dumps(summary, indent=2, default=str))
    written["summary"] = str(path)
    return written
