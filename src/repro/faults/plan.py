"""Seeded, deterministic, serializable fault plans.

A :class:`FaultPlan` is the single source of randomness for a chaos run:
it owns one private PRNG stream per injection *site* (a named point in
the hierarchy, e.g. ``"border.mem"`` for the border→DRAM hop), so the
sequence of injected faults is a pure function of ``(seed, specs, the
deterministic access order)`` — the same seed replays the identical
fault sequence, which is what lets the chaos harness assert bitwise
reproducibility of its invariant reports.

The plan also keeps a log of every injected fault (site, per-site access
index, kind); :meth:`FaultPlan.signature` exposes it for the
reproducibility checks.
"""

from __future__ import annotations

import enum
import json
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "SiteInjector", "derive_seed"]


class FaultKind(enum.Enum):
    """The hardware failure modes the chaos layer can inject (paper §2.1
    enumerates the bug classes these model: design bugs that lose or
    duplicate requests, manufacturing defects flipping data bits, and
    wedged engines that stop responding)."""

    DROP = "drop"  # response lost: the access fails (upstream sees None)
    HANG = "hang"  # no response, ever — until a watchdog releases it
    BIT_FLIP = "bit-flip"  # one bit of returned read data is corrupted
    DUP_WRITEBACK = "dup-writeback"  # a writeback is committed twice
    DELAY = "delay"  # the response is stalled by a fixed extra latency
    ATS_FAULT = "ats-fault"  # a translation request transiently faults
    # Recovery-campaign kinds, interpreted by the harness rather than a
    # FaultyPort (which passes unknown kinds through untouched): a rogue
    # device issuing border writes outside its sandbox, and a pre-reset
    # device replaying recorded writebacks under a stale attach epoch.
    ROGUE_WRITE = "rogue-write"
    RESET_REPLAY = "reset-replay"
    # Fleet-network kinds, interpreted by repro.fleet's FaultyTransport
    # (frames between coordinator and workers): a frame sent twice, and
    # a symmetric partition that swallows the next ``param`` frames in
    # both directions. DROP and DELAY are reused as-is at fleet sites.
    DUP_FRAME = "dup-frame"
    PARTITION = "partition"

    @property
    def fleet_only(self) -> bool:
        """True for kinds that only the fleet transport interprets —
        they never inject into a chaos simulation run."""
        return self in (FaultKind.DUP_FRAME, FaultKind.PARTITION)

    @property
    def read_only(self) -> bool:
        return self is FaultKind.BIT_FLIP

    @property
    def write_only(self) -> bool:
        return self is FaultKind.DUP_WRITEBACK


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *at this site, with this rate, this failure*."""

    kind: FaultKind
    site: str
    rate: float  # per-eligible-access injection probability in [0, 1]
    max_count: int = 0  # 0 = unbounded
    param: int = 0  # kind-specific (DELAY: extra ticks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind.value,
            "site": self.site,
            "rate": self.rate,
            "max_count": self.max_count,
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        return cls(
            kind=FaultKind(data["kind"]),
            site=str(data["site"]),
            rate=float(data["rate"]),
            max_count=int(data.get("max_count", 0)),
            param=int(data.get("param", 0)),
        )


def derive_seed(seed: int, *parts: str) -> int:
    """A stable (hash-randomization-proof) sub-seed for ``parts``."""
    value = seed & 0xFFFFFFFF
    for part in parts:
        value = zlib.crc32(part.encode("utf-8"), value)
    return value


class SiteInjector:
    """The per-site view of a plan: one PRNG, one access counter.

    Every component that can fail holds exactly one injector and calls
    :meth:`draw` once per eligible operation, in simulation order — that
    discipline is what makes the fault sequence reproducible. Each
    injection is appended to ``injected`` and tallied in ``counts``, the
    plan's own log containers; the injector holds no reference to the
    plan, so a finished run's plan is freed by reference counting.
    """

    def __init__(
        self,
        seed: int,
        site: str,
        specs: List[FaultSpec],
        injected: List[Tuple[str, int, str]],
        counts: Dict[str, int],
    ) -> None:
        self.site = site
        self.specs = specs
        self._rng = random.Random(derive_seed(seed, site))
        self._index = 0
        self._used: Dict[int, int] = {}  # spec position -> injections so far
        self._injected = injected
        self._counts = counts

    def draw(self, write: Optional[bool] = None) -> Optional[FaultSpec]:
        """Decide the fault (if any) for the next access at this site."""
        index = self._index
        self._index += 1
        for pos, spec in enumerate(self.specs):
            if write is not None:
                if spec.kind.read_only and write:
                    continue
                if spec.kind.write_only and not write:
                    continue
            # Draw unconditionally so exhausting one rule's budget never
            # perturbs the random stream seen by the rules after it.
            roll = self._rng.random()
            if spec.max_count and self._used.get(pos, 0) >= spec.max_count:
                continue
            if roll < spec.rate:
                self._used[pos] = self._used.get(pos, 0) + 1
                kind = spec.kind.value
                self._injected.append((self.site, index, kind))
                self._counts[kind] = self._counts.get(kind, 0) + 1
                return spec
        return None

    def rand_below(self, bound: int) -> int:
        """A deterministic auxiliary draw (e.g. which bit to flip)."""
        return self._rng.randrange(bound)


class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules plus the injection log."""

    def __init__(self, seed: int, specs: Sequence[FaultSpec]) -> None:
        self.seed = int(seed)
        self.specs = list(specs)
        self.injected: List[Tuple[str, int, str]] = []
        self._counts: Dict[str, int] = {}
        self._injectors: Dict[str, SiteInjector] = {}

    # -- injection ---------------------------------------------------------

    def for_site(self, site: str) -> SiteInjector:
        """The injector for one named point in the hierarchy."""
        injector = self._injectors.get(site)
        if injector is None:
            specs = [s for s in self.specs if s.site == site]
            injector = SiteInjector(
                self.seed, site, specs, self.injected, self._counts
            )
            self._injectors[site] = injector
        return injector

    # -- reporting ---------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return len(self.injected)

    def counts_by_kind(self) -> Dict[str, int]:
        return dict(sorted(self._counts.items()))

    def signature(self) -> Tuple[Tuple[str, int, str], ...]:
        """The exact fault sequence — equal iff two runs injected
        identical faults at identical points."""
        return tuple(self.injected)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        return cls(
            seed=int(data["seed"]),
            specs=[FaultSpec.from_dict(s) for s in data["specs"]],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        return cls.from_dict(json.loads(blob))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FaultPlan(seed={self.seed}, specs={len(self.specs)}, "
            f"injected={self.total_injected})"
        )
