"""Statistics collection.

Every hardware component owns a :class:`StatDomain`, a hierarchical bag of
named counters and distributions. Domains can be merged and rendered, and
the experiment harness reads them to regenerate the paper's figures (e.g.
Fig. 5's border-crossing requests per cycle comes straight from the Border
Control domain's ``checks`` counter divided by GPU cycles).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Counter", "Distribution", "StatDomain"]


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use two counters for deltas")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Distribution:
    """Streaming summary of a sample stream (count/sum/min/max/mean)."""

    __slots__ = ("name", "count", "total", "minimum", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def record(self, sample: float) -> None:
        self.count += 1
        self.total += sample
        if self.minimum is None or sample < self.minimum:
            self.minimum = sample
        if self.maximum is None or sample > self.maximum:
            self.maximum = sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class StatDomain:
    """A named, nestable namespace of counters and distributions."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._dists: Dict[str, Distribution] = {}
        self._children: Dict[str, "StatDomain"] = {}

    # -- structure -------------------------------------------------------

    def child(self, name: str) -> "StatDomain":
        """Get or create a nested domain."""
        if name not in self._children:
            self._children[name] = StatDomain(name)
        return self._children[name]

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def distribution(self, name: str) -> Distribution:
        if name not in self._dists:
            self._dists[name] = Distribution(name)
        return self._dists[name]

    # -- access ----------------------------------------------------------

    def get(self, path: str) -> int:
        """Counter value addressed by a dotted path; 0 if absent."""
        domain, leaf = self._resolve(path)
        if domain is None or leaf not in domain._counters:
            return 0
        return domain._counters[leaf].value

    def ratio(self, numerator: str, denominator: str) -> float:
        """Ratio of two counters (0.0 when the denominator is zero)."""
        denom = self.get(denominator)
        return self.get(numerator) / denom if denom else 0.0

    def total(self, leaf: str) -> int:
        """Sum of every counter named ``leaf`` anywhere in this subtree.

        Used by the fault-injection layer to aggregate e.g. ``injected``
        or ``retries`` across several interposers without knowing where
        each one was spliced into the hierarchy.
        """
        count = 0
        if leaf in self._counters:
            count += self._counters[leaf].value
        for child in self._children.values():
            count += child.total(leaf)
        return count

    def _resolve(self, path: str) -> Tuple[Optional["StatDomain"], str]:
        parts = path.split(".")
        domain: Optional[StatDomain] = self
        for part in parts[:-1]:
            if domain is None or part not in domain._children:
                return None, parts[-1]
            domain = domain._children[part]
        return domain, parts[-1]

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, int]]:
        """Yield (dotted-path, value) for every counter, depth first."""
        base = f"{prefix}{self.name}." if prefix or self.name else ""
        for name in sorted(self._counters):
            yield base + name, self._counters[name].value
        for name in sorted(self._children):
            yield from self._children[name].walk(base)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.walk())

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Human-readable dump, one counter per line."""
        lines: List[str] = []
        for path, value in self.walk():
            lines.append(f"{path:<56s} {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StatDomain({self.name!r}, {len(self._counters)} counters)"
