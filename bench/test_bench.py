"""Tests of the benchmark itself, at ``--smoke`` size: ``pytest bench/``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(root: Path, *args: str):
    """``run.py --smoke`` under ``root``; the process and its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def bench_copy(tmp_path: Path, with_src: bool) -> Path:
    """A checkout holding the benchmark files and, optionally, the program."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def serve_pids() -> set:
    pids = set()
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            argv = cmdline.read_bytes().split(b"\0")
        except OSError:
            continue
        if b"serve" in argv and (b"repro.cli" in argv or any(a.endswith(b"serve_traced.py")
                                                               for a in argv)):
            pids.add(cmdline.parent.name)
    return pids


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_and_digests_match(workload, trace, tmp_path):
    before = serve_pids()
    out = tmp_path / "report.json"
    proc, last = run_bench(ROOT, "--workload", workload, "--trace", str(trace),
                           "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: entry["unit"] for name, entry in last["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    report = json.loads(out.read_text())["workloads"][workload]
    assert report["pinned"] and report["sim_digest"] is not None
    if trace:
        assert last["metrics"]["profile.closure"]["value"] >= 0.95
    assert serve_pids() <= before, "a server outlived the benchmark"


def test_digest_mismatch_fails_the_run(tmp_path):
    root = bench_copy(tmp_path, with_src=True)
    pins_path = root / "bench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["border-reads"]["smoke-1234"][3] = "0" * 16
    pins_path.write_text(json.dumps(pins))
    proc, last = run_bench(root, "--workload", "border-reads")
    assert proc.returncode != 0
    assert not last["correct"] and last["failed"] >= 1
    assert "pinned" in proc.stdout
    assert not (root / ".bench_work").exists() or not any((root / ".bench_work").iterdir())


def test_fails_without_the_program(tmp_path):
    root = bench_copy(tmp_path, with_src=False)
    proc, last = run_bench(root, "--workload", "fig4-ref")
    assert proc.returncode != 0 and last is None
    assert sorted(os.listdir(root)) == ["BENCHMARK.json", "bench"]
