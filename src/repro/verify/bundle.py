"""Replayable counterexample bundles for the lockstep verifier.

A divergence found by the Hypothesis machine or the small-model checker
is only useful if it can be re-run: bundles reuse the sweep subsystem's
poison-cell format (``poison-*.json``, ``repro-poison-cell-v1`` schema)
with ``kind: "verify"``, so the existing ``replay-cell`` CLI replays them
alongside sweep and chaos cells. A bundle records the exact op trace and
the harness geometry; :func:`replay_counterexample` rebuilds the system
from scratch and re-applies the trace op by op.
"""

from __future__ import annotations

from contextlib import closing
from pathlib import Path
from typing import Dict, List, Optional

from repro.supervisor import write_poison_bundle
from repro.verify.harness import (
    HarnessConfig,
    LockstepHarness,
    OpRejected,
)

__all__ = ["make_cell", "write_verify_bundle", "replay_counterexample"]


def make_cell(
    ops: List[Dict[str, object]],
    source: str,
    config: Optional[HarnessConfig] = None,
) -> Dict[str, object]:
    """Package a failing trace as a self-contained, replayable cell."""
    return {
        "ops": list(ops),
        "source": source,  # "machine" | "smallmodel"
        "harness": (config or HarnessConfig()).to_dict(),
    }


def write_verify_bundle(
    bundle_dir: Path,
    cell: Dict[str, object],
    error: str,
) -> Path:
    """Write a verify counterexample as a poison-cell bundle; returns
    the bundle path."""

    def describe(task: Dict[str, object]) -> Dict[str, object]:
        return {"kind": "verify", "cell": task}

    return write_poison_bundle(
        bundle_dir,
        cell,
        error,
        attempts=1,
        describe_task=describe,
        label="verify",
    )


def replay_counterexample(cell: Dict[str, object]) -> Dict[str, object]:
    """Re-run a bundled trace against a fresh lockstep system.

    Returns ``{"reproduced": bool, "steps": int, "step": int|None,
    "error": str|None}`` — ``reproduced`` is True when the trace again
    ends in a lockstep violation (i.e. the bug is still there).
    """
    config = HarnessConfig.from_dict(dict(cell.get("harness", {})))
    ops = list(cell.get("ops", []))
    with closing(LockstepHarness(config)) as harness:
        for step, op in enumerate(ops):
            try:
                harness.apply(op)
                harness.check_invariants()
            except OpRejected as exc:
                return {
                    "reproduced": False,
                    "steps": len(ops),
                    "step": step,
                    "error": f"op rejected on replay: {exc}",
                }
            except AssertionError as exc:
                return {
                    "reproduced": True,
                    "steps": len(ops),
                    "step": step,
                    "error": str(exc),
                }
    return {"reproduced": False, "steps": len(ops), "step": None, "error": None}
