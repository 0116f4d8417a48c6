"""Full paper-vs-measured report.

``full_report()`` reruns (or reads from cache) every experiment and
assembles the complete text report: Tables 1-3, Figures 4-7, and the
storage overheads. Each figure is one campaign of its own driver, so
the report fails, resumes and parallelizes exactly as the drivers do.
The ``border-control report`` CLI command and the EXPERIMENTS.md
generator both call this.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.ascii_chart import bar_chart, line_chart
from repro.experiments import (
    fig4,
    fig5,
    fig6,
    fig7,
    storage,
    tables,
    workload_table,
)
from repro.sim.config import GPUThreading, SafetyMode

__all__ = ["full_report"]


def full_report(
    quick: bool = False,
    seed: int = 1234,
    workloads: Optional[List[str]] = None,
    workers: Optional[int] = 1,
    allow_partial: bool = False,
    journal=None,
) -> str:
    """Run everything and render one text report.

    ``quick`` scales traces down 4x for a fast smoke pass; the shapes
    survive, the exact percentages wobble. ``workers``, ``allow_partial``
    and ``journal`` (:class:`repro.journal.RunJournal`) go to every
    figure driver: ``workers`` > 1 (or ``None`` = all cores) runs each
    figure's grid on a process pool with output identical to a serial
    run, ``allow_partial`` renders explicit gap markers for failed cells
    instead of raising, and a journal makes the report resumable after a
    crash or interrupt.
    """
    ops_scale = 0.25 if quick else 1.0
    campaign = dict(
        workloads=workloads,
        seed=seed,
        ops_scale=ops_scale,
        workers=workers,
        allow_partial=allow_partial,
        journal=journal,
    )
    sections: List[str] = []

    sections.append(tables.table1())
    sections.append(tables.table2())
    sections.append(tables.table3())
    sections.append(workload_table.run(**campaign).render())

    for threading in (GPUThreading.HIGHLY, GPUThreading.MODERATELY):
        result = fig4.run(threading, **campaign)
        sections.append(result.render())
        full_iommu = {
            name: value
            for name, value in result.overheads[SafetyMode.FULL_IOMMU].items()
            if value is not None
        }
        if full_iommu:
            sections.append(
                bar_chart(
                    list(full_iommu.keys()),
                    [v * 100 for v in full_iommu.values()],
                    title=f"Full IOMMU overhead (%), {threading.label}",
                    fmt="{:.1f}%",
                )
            )

    f5 = fig5.run(**campaign)
    sections.append(f5.render())
    f5_bars = {
        name: value
        for name, value in f5.requests_per_cycle.items()
        if value is not None
    }
    if f5_bars:
        sections.append(
            bar_chart(
                list(f5_bars.keys()),
                list(f5_bars.values()),
                title="Border Control requests per cycle (highly threaded)",
            )
        )

    f6 = fig6.run(**campaign)
    sections.append(f6.render())
    sections.append(
        line_chart(
            f6.sizes_bytes,
            {f"{ppe} pages/entry": f6.miss_ratio[ppe] for ppe in sorted(f6.miss_ratio)},
            title="Figure 6: BCC miss ratio vs. size (bytes)",
        )
    )

    f7 = fig7.run(**campaign)
    sections.append(f7.render())
    sections.append(
        line_chart(
            f7.rates,
            {
                f"{mode.label}/{thr.label}": f7.series(mode, thr)
                for mode in (SafetyMode.BC_BCC, SafetyMode.ATS_ONLY)
                for thr in (GPUThreading.HIGHLY, GPUThreading.MODERATELY)
            },
            title="Figure 7: overhead vs. downgrades per second",
            y_fmt="{:.4f}",
        )
    )
    for thr in (GPUThreading.HIGHLY, GPUThreading.MODERATELY):
        sections.append(
            f"per-downgrade cost ratio BC/ATS-only ({thr.label}): "
            f"{f7.bc_to_baseline_cost_ratio(thr):.2f}x (paper: ~2x)"
        )

    sections.append(storage.run().render())
    return "\n\n".join(sections)
