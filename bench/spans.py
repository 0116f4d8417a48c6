"""Span wrappers around layer entry points, and the cProfile roll-up.

Spans are recorded from outside the program: :class:`Spans` replaces a
public function or method with a timing wrapper for the rest of the
process's life. Nothing under ``src/`` knows about them.

* :func:`install_sim_spans` times the calls ``repro.sim.runner.run_single``
  makes into its layers (System build, process attach, trace generation,
  result collection); the rest of a cell is simulation proper.
* :func:`install_host_spans` times the host layers a service job passes
  through (wire, admission, run journal, sweep, supervisor pool, result
  cache). ``serve_traced.py`` installs them in the server process.
* :func:`profile_shares` rolls cProfile ``tottime`` up into layers by
  module, charging built-ins and the standard library to the ``repro``
  module that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: ``repro`` module prefix -> profile layer; the first match wins, so
#: narrower prefixes come first.
PROFILE_LAYERS = (
    ("repro.sim.engine", "engine"),
    ("repro.sim", "sim"),
    ("repro.accel", "accel"),
    ("repro.mem.cache", "mem.cache"),
    ("repro.mem.phys_memory", "mem.phys_memory"),
    ("repro.mem.dram", "mem.dram"),
    ("repro.mem", "mem"),
    ("repro.vm", "vm"),
    ("repro.iommu", "iommu"),
    ("repro.core", "core"),
    ("repro.osmodel", "osmodel"),
    ("repro.workloads", "workloads"),
    ("repro", "repro.other"),
)
PROFILE_NAMES = tuple(layer for _prefix, layer in PROFILE_LAYERS) + ("other",)


class Spans:
    """Records ``(name, start epoch seconds, duration seconds)`` per call."""

    def __init__(self) -> None:
        self.events: List[Tuple[str, float, float]] = []

    def _timed(self, name: str, fn):
        events = self.events
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start, t0 = time.time(), time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    events.append((name, start, time.perf_counter() - t0))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start, t0 = time.time(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((name, start, time.perf_counter() - t0))

        return wrapper

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` under ``name``."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._timed(name, raw.__func__))
        else:
            wrapped = self._timed(name, raw)
        setattr(owner, attr, wrapped)

    def take(self) -> Dict[str, float]:
        """Seconds per span name since the last call, then forget them."""
        sums = totals(self.events)
        self.events.clear()
        return sums

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.events))


def totals(events: Iterable[Tuple[str, float, float]],
           since: float = float("-inf"), until: float = float("inf")) -> Dict[str, float]:
    """Summed seconds per span name over spans that start in ``[since, until)``."""
    out: Dict[str, float] = defaultdict(float)
    for name, start, seconds in events:
        if since <= start < until:
            out[name] += seconds
    return dict(out)


def install_sim_spans(spans: Spans) -> None:
    """Wrap the calls ``run_single`` makes into its layers: System build,
    process attach, trace generation and result collection."""
    from repro.sim import runner, system

    spans.patch(runner, "System", "sim.system.build")
    spans.patch(system.System, "new_process", "osmodel.attach")
    spans.patch(system.System, "attach_process", "osmodel.attach")
    spans.patch(runner, "generate_trace", "workloads.generate_trace")
    spans.patch(runner, "collect_result", "sim.runner.collect")


def install_cell_log(spans: Spans, directory: Path) -> None:
    """Append each cell's sim spans to ``cells-<pid>.jsonl`` as it ends.

    For sweep pool workers, which inherit the wrappers by ``fork`` and
    never return to the process that installed them. Results go
    through ``repro.experiments.common.cached_run_ex``, which calls
    ``run_single`` through that module's namespace.
    """
    from repro.experiments import common

    install_sim_spans(spans)
    run_single = common.run_single

    @functools.wraps(run_single)
    def logged(*args, **kwargs):
        spans.events.clear()  # a forked worker inherits its parent's list
        start, t0 = time.time(), time.perf_counter()
        result = run_single(*args, **kwargs)
        record = {"start": start, "cell": time.perf_counter() - t0, "spans": spans.take()}
        with open(directory / f"cells-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        return result

    common.run_single = logged


def read_cell_log(directory: Path) -> List[dict]:
    records = []
    for path in sorted(directory.glob("cells-*.jsonl")):
        records.extend(json.loads(line) for line in path.read_text().splitlines() if line)
    return records


def install_host_spans(spans: Spans) -> None:
    """Wrap the host layers a service job passes through."""
    from repro import journal, sweep
    from repro.experiments import common
    from repro.service import admission, server

    spans.patch(server, "read_request", "service.wire")
    spans.patch(server, "send_json", "service.wire")
    spans.patch(admission.AdmissionController, "admit", "service.admission")
    spans.patch(journal.RunJournal, "open", "journal.open")
    spans.patch(journal.RunJournal, "record", "journal.record")
    spans.patch(common, "store_result", "experiments.cache_store")
    spans.patch(sweep, "run_sweep", "sweep.run_sweep")
    spans.patch(sweep, "supervised_map", "supervisor.map")


# -- cProfile roll-up ---------------------------------------------------------


def _module_of(filename: str, src: str) -> Optional[str]:
    if not filename.startswith(src):
        return None
    rel = filename[len(src):].lstrip(os.sep)
    parts = rel[:-3].split(os.sep) if rel.endswith(".py") else rel.split(os.sep)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _layer_of(module: Optional[str]) -> str:
    if module is None:
        return "other"
    for prefix, layer in PROFILE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def profile_shares(stats: dict, src: Path) -> Dict[str, float]:
    """Share of profiled self time per layer, from ``pstats.Stats.stats``.

    A function outside ``repro`` (a built-in, or standard library code)
    is charged to the layers of its callers, split by the time each
    caller spent in it; when the caller is outside ``repro`` too, it is
    ``other``. ``closure`` is the share charged to some ``repro`` layer.
    """
    src_prefix = str(src)
    seconds: Dict[str, float] = defaultdict(float)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, callers) in stats.items():
        module = _module_of(filename, src_prefix)
        if module is not None:
            seconds[_layer_of(module)] += tottime
            continue
        if not callers:
            seconds["other"] += tottime
            continue
        for (caller_file, _l, _f), edge in callers.items():
            seconds[_layer_of(_module_of(caller_file, src_prefix))] += edge[2]
    total = sum(seconds.values())
    shares = {layer: (seconds.get(layer, 0.0) / total if total else 0.0)
              for layer in PROFILE_NAMES}
    shares["closure"] = 1.0 - shares["other"]
    return shares
