"""Experiment drivers — one module per table/figure of the paper.

========  =======================================================
Module    Regenerates
========  =======================================================
tables    Table 1 (approach comparison), Table 2 (configurations
          under study), Table 3 (simulation configuration)
fig4      Fig. 4a/4b — runtime overhead vs. the unsafe baseline
fig5      Fig. 5 — border-crossing requests per cycle
fig6      Fig. 6 — BCC miss ratio vs. size and pages/entry
fig7      Fig. 7 — overhead vs. permission-downgrade rate
storage   §5.2.3 — Protection Table / BCC space overheads
========  =======================================================

Every simulating driver exposes ``grid(...)``, its cells, and
``run(...)``, which reads every cell's result from one campaign
(:func:`repro.sweep.grid_results`) and returns a plain-data result
object with a ``render()`` method producing the text table/series, plus
the paper's reference numbers for side-by-side comparison. Results are
memoized in-process and cached on disk (``.exp_cache/``), so benchmarks
and report generation don't re-simulate unchanged configurations.
"""

from repro.experiments import (
    fig4,
    fig5,
    fig6,
    fig7,
    storage,
    tables,
    workload_table,
)
from repro.experiments.common import cached_run, clear_cache

__all__ = [
    "cached_run",
    "clear_cache",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "storage",
    "tables",
    "workload_table",
]
