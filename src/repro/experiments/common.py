"""Shared infrastructure for experiment drivers: caching and formatting.

Simulations are deterministic given their parameters, so results are
cached as JSON on disk under ``.exp_cache/`` in the working directory,
and :func:`cached_run` also memoizes them for the process's lifetime
(campaign cells skip that memo: see :func:`load_or_run`). Bump
:data:`CACHE_VERSION` whenever the timing model changes in a way that
invalidates old numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import RunResult, run_single

__all__ = [
    "CACHE_VERSION",
    "cache_key",
    "cache_path",
    "cached_run",
    "cached_run_ex",
    "clear_cache",
    "fmt_percent",
    "fmt_ratio",
    "load_or_run",
    "publish_result",
    "store_result",
    "text_table",
]

CACHE_VERSION = 5

# Memoized results, keyed by (cache dir, parameter key). The cache dir is
# part of the key so that pointing REPRO_CACHE_DIR elsewhere (tests and
# sweep workers do) never resurrects results memoized under the old dir.
_memory_cache: Dict[Tuple[str, str], RunResult] = {}


def _cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".exp_cache"))


def _memory_key(key: str) -> Tuple[str, str]:
    return (str(_cache_dir()), key)


def _key(workload: str, safety: SafetyMode, threading: GPUThreading, **kwargs) -> str:
    # A flag that is off leaves the key it had before the flag existed.
    blob = json.dumps(
        {
            "v": CACHE_VERSION,
            "workload": workload,
            "safety": safety.value,
            "threading": threading.value,
            **{k: v for k, v in sorted(kwargs.items()) if v is not False},
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _result_to_dict(result: RunResult) -> dict:
    """A result as JSON: an unset optional field (no border trace) has no key."""
    out = {}
    for field in dataclasses.fields(RunResult):
        value = getattr(result, field.name)
        if value is None and field.default is None:
            continue
        if isinstance(value, (SafetyMode, GPUThreading)):
            value = value.value
        out[field.name] = value
    return out


def _result_from_dict(data: dict) -> RunResult:
    data = dict(data)
    data["safety"] = SafetyMode(data["safety"])
    data["threading"] = GPUThreading(data["threading"])
    if "border_trace" in data:  # JSON turned its (ppn, is_write) tuples into lists
        data["border_trace"] = [tuple(pair) for pair in data["border_trace"]]
    return RunResult(**data)


def cache_key(
    workload: str,
    safety: SafetyMode,
    threading: GPUThreading = GPUThreading.HIGHLY,
    seed: int = 1234,
    ops_scale: float = 1.0,
    downgrade_interval_cycles: Optional[float] = None,
    record_border: bool = False,
) -> str:
    """The cache key :func:`cached_run_ex` uses for these parameters."""
    return _key(
        workload,
        safety,
        threading,
        seed=seed,
        ops_scale=ops_scale,
        dgi=downgrade_interval_cycles,
        record_border=record_border,
    )


def cache_path(key: str) -> Path:
    """On-disk location of one cache entry (may not exist yet)."""
    return _cache_dir() / f"{key}.json"


def _write_atomic(path: Path, text: str) -> None:
    """Publish a cache entry atomically.

    Concurrent sweep workers share ``.exp_cache/``; a plain
    ``write_text`` lets a reader observe a truncated JSON document
    mid-write. Writing to a temp file in the same directory and
    ``os.replace``-ing it in guarantees readers only ever see complete
    entries (POSIX rename is atomic within a filesystem).
    """
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.stem + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def publish_result(key: str, result: RunResult) -> None:
    """Publish an externally computed result to the disk cache, if absent.

    The sweep publishes every result it adopts (pool-computed,
    fleet-placed, resumed from a journal), in case its worker died
    between computing and persisting or ran on another host.
    """
    path = cache_path(key)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, json.dumps(_result_to_dict(result)))


def store_result(key: str, result: RunResult) -> None:
    """Adopt an externally computed result into both cache layers."""
    _memory_cache[_memory_key(key)] = result
    publish_result(key, result)


def load_or_run(key: str, run: Callable[[], RunResult]) -> Tuple[RunResult, str]:
    """``key``'s disk-cache entry, or ``run()``'s result published under it.

    Returns ``(result, source)`` with ``source`` ``"disk"`` or
    ``"computed"``: :func:`cached_run_ex` without the in-process memo.
    Campaign cells run through this, so a campaign leaves no result in
    the memo once it returns.
    """
    path = cache_path(key)
    if path.exists():
        try:
            return _result_from_dict(json.loads(path.read_text())), "disk"
        except FileNotFoundError:
            pass  # another process replaced/unlinked it mid-read; recompute
        except (ValueError, TypeError, KeyError):
            # Stale or corrupt entry. A racing process may have detected
            # (and unlinked) the same corruption first — that's fine.
            try:
                path.unlink()
            except FileNotFoundError:
                pass
    result = run()
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, json.dumps(_result_to_dict(result)))
    return result, "computed"


def cached_run_ex(
    workload: str,
    safety: SafetyMode,
    threading: GPUThreading = GPUThreading.HIGHLY,
    seed: int = 1234,
    ops_scale: float = 1.0,
    downgrade_interval_cycles: Optional[float] = None,
    record_border: bool = False,
) -> Tuple[RunResult, str]:
    """Run (or retrieve) one simulation, reporting where the result came from.

    Returns ``(result, source)`` with ``source`` one of ``"memory"``,
    ``"disk"``, or ``"computed"``. The provenance is the ground truth for
    cache-hit accounting: callers must not re-derive it from a separate
    ``cache_path(...).exists()`` probe, which races against concurrent
    writers (another worker can publish the entry between the probe and
    the lookup, or vice versa) and misreports hits either way.
    ``record_border`` results carry their border trace, cached with them.
    """
    key = cache_key(
        workload,
        safety,
        threading,
        seed=seed,
        ops_scale=ops_scale,
        downgrade_interval_cycles=downgrade_interval_cycles,
        record_border=record_border,
    )
    mem_key = _memory_key(key)
    if mem_key in _memory_cache:
        return _memory_cache[mem_key], "memory"
    result, source = load_or_run(
        key,
        lambda: run_single(
            workload,
            safety,
            threading,
            seed=seed,
            ops_scale=ops_scale,
            record_border=record_border,
            downgrade_interval_cycles=downgrade_interval_cycles,
        ),
    )
    _memory_cache[mem_key] = result
    return result, source


def cached_run(
    workload: str,
    safety: SafetyMode,
    threading: GPUThreading = GPUThreading.HIGHLY,
    seed: int = 1234,
    ops_scale: float = 1.0,
    downgrade_interval_cycles: Optional[float] = None,
) -> RunResult:
    """Run (or retrieve) one simulation; see :func:`cached_run_ex`."""
    result, _source = cached_run_ex(
        workload,
        safety,
        threading,
        seed=seed,
        ops_scale=ops_scale,
        downgrade_interval_cycles=downgrade_interval_cycles,
    )
    return result


def clear_cache(disk: bool = False) -> None:
    """Drop memoized results (and optionally the on-disk cache)."""
    _memory_cache.clear()
    if disk and _cache_dir().is_dir():
        for path in _cache_dir().glob("*.json"):
            try:
                path.unlink()
            except FileNotFoundError:
                pass


# -- text rendering helpers ---------------------------------------------------


def fmt_percent(value: float) -> str:
    return f"{value * 100:.2f}%"


def fmt_ratio(value: float) -> str:
    return f"{value:.2f}x"


def text_table(headers: List[str], rows: List[List[str]], title: str = "") -> str:
    """Render an aligned monospace table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*headers))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt.format(*row))
    return "\n".join(lines)
