"""Exhaustive small-model checking of the lockstep system.

The small-model hypothesis behind this module: if the Border Control
stack diverges from the abstract reference monitor at all, it diverges on
a *tiny* instance — two devices, a two-page mapping, a secret frame, and
short op sequences. So instead of sampling (Hypothesis), enumerate: run
**every** interleaving over a small op alphabet up to a bounded depth,
a fresh system per sequence, checking the full lockstep invariants after
every step.

With the default alphabet (~17 ops) and depth 3 that is ~5000 sequences
of real-stack execution — a few seconds — and it is *complete* over that
universe: a pass is a proof, not a sample. The alphabet covers the events
the bugs live between: legitimate translations, current and epoch-stale
accesses, rogue secret probes, context-switch downgrades, and
epoch-fenced resets.

No Hypothesis dependency: this module runs anywhere the package runs,
including minimal CI images.
"""

from __future__ import annotations

import itertools
from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.verify.harness import (
    HarnessConfig,
    LockstepHarness,
    OpRejected,
)

__all__ = [
    "Counterexample",
    "small_model_config",
    "small_model_alphabet",
    "check_small_model",
]


@dataclass
class Counterexample:
    """A minimal op sequence on which the two models diverged."""

    ops: List[Dict[str, object]] = field(default_factory=list)
    step: int = 0
    error: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"ops": self.ops, "step": self.step, "error": self.error}


def small_model_config() -> HarnessConfig:
    """The small universe: 64 frames, 2 devices, a 2×2 BCC (so eviction
    happens), and a storm threshold of 3 (reachable at depth ≥ 3)."""
    return HarnessConfig(
        phys_bytes=64 * 4096,
        devices=2,
        bcc_entries=2,
        bcc_pages_per_entry=2,
        storm_threshold=3,
    )


def setup_prefix() -> List[Dict[str, object]]:
    """Deterministic prologue run before every sequence: one writable
    two-page mapping, so translations and granted accesses exist at
    depth 1 instead of depth 3."""
    return [{"op": "mmap", "pages": 2, "writable": True}]


def small_model_alphabet(harness: LockstepHarness) -> List[Dict[str, object]]:
    """The op universe enumerated at each depth.

    Per device: translate each of the two mapped pages, write-access each
    page at the current epoch and one epoch stale, probe the secret
    frame, and an epoch-fenced reset. Globally: a context-switch
    downgrade. Reads and writes behave identically with RW grants, so
    only writes are enumerated — halving the fan-out without losing
    coverage of either invariant.
    """
    ops: List[Dict[str, object]] = [{"op": "context-switch"}]
    for dev in range(len(harness.dev_ids)):
        for page in (0, 1):
            ops.append({"op": "translate", "dev": dev, "area": 0, "page": page})
        for page in (0, 1):
            for stale in (0, 1):
                ops.append(
                    {
                        "op": "access",
                        "dev": dev,
                        "ppn": _mapped_ppn(harness, page),
                        "write": True,
                        "stale": stale,
                    }
                )
        ops.append(
            {
                "op": "access",
                "dev": dev,
                "ppn": harness.secret.ppn,
                "write": False,
                "stale": 0,
            }
        )
        ops.append({"op": "reset", "dev": dev})
    return ops


def _mapped_ppn(harness: LockstepHarness, page: int) -> int:
    start_vpn = harness.areas[0]
    translation = harness.victim.page_table.translate_vpn(start_vpn + page)
    assert translation is not None
    return translation.ppn + (start_vpn + page - translation.vpn)


def check_small_model(
    depth: int = 3,
    config: Optional[HarnessConfig] = None,
    progress=None,
) -> Optional[Counterexample]:
    """Enumerate every op sequence up to ``depth``; return the first
    divergence found (as a replayable counterexample), or ``None``.

    Sequences are enumerated shortest-first, so the counterexample
    returned is minimal-in-length by construction. ``progress`` (if
    given) is called with the number of sequences checked so far every
    1000 sequences.
    """
    cfg = config or small_model_config()
    prefix = setup_prefix()
    # The alphabet embeds concrete PPNs, which are deterministic for a
    # given config: build it once from a scratch harness.
    probe = LockstepHarness(cfg)
    for op in prefix:
        probe.apply(op)
    alphabet = small_model_alphabet(probe)
    probe.close()

    checked = 0
    for length in range(1, depth + 1):
        for sequence in itertools.product(alphabet, repeat=length):
            checked += 1
            if progress is not None and checked % 1000 == 0:
                progress(checked)
            with closing(LockstepHarness(cfg)) as harness:
                try:
                    for op in prefix:
                        harness.apply(op)
                        harness.check_invariants()
                except AssertionError as exc:
                    # A broken model can already diverge in the prologue.
                    return Counterexample(
                        ops=list(harness.trace), step=len(harness.trace), error=str(exc)
                    )
                try:
                    for step, op in enumerate(sequence):
                        harness.apply(op)
                        harness.check_invariants()
                except OpRejected:
                    continue  # gate refused the op: prune this sequence
                except AssertionError as exc:
                    return Counterexample(
                        ops=list(harness.trace),
                        step=len(harness.trace),
                        error=str(exc),
                    )
    return None
