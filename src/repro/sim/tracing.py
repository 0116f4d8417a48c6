"""One machine's event stream, and a timestamped log of it.

Every simulated machine has one :class:`Events` stream. Its ``Kernel``
creates it and hands it to the sandboxes and front ends that emit on it;
``system.events`` is the same object. ``subscribe(kind, fn)`` takes one
of four kinds:

* ``violation`` — ``fn(record)``: the ``ViolationRecord`` of a request
  Border Control, the full IOMMU or the CAPI-like unit refused. The
  kernel's violation policy subscribes first, so its sanction has run
  before any observer sees the event;
* ``decision`` — ``fn(accel_id, paddr, write, decision)``: every border
  check, allowed or not, with the ``AccessDecision`` the caller saw;
* ``lifecycle`` — ``fn(event, accel_id, info)``: ``quarantine`` (info:
  strikes, permanent), ``storm-kill`` (pid), ``readmit``, ``reset`` (epoch);
* ``recovery`` — ``fn(stage, info)``: ``reset`` (info: attempt,
  stale_epoch), ``relaunch``, ``retry`` or ``outcome`` of a recovery.

Subscribers run synchronously and charge no simulated time. With none,
an emitter pays one truthiness test.

An :class:`EventTrace` attached to a :class:`~repro.sim.system.System`
logs its violations, lifecycle transitions and recovery stages with
their simulated time, for debugging an accelerator integration or
auditing an attack scenario:

    trace = EventTrace.attach(system)
    ...run...
    print(trace.render())
    trace.to_jsonl("events.jsonl")

Tracing border *crossings* (every decision) is opt-in via
``crossings=True``: it is high volume and meant for short runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.mem.address import PAGE_SHIFT

__all__ = ["EVENT_KINDS", "EventTrace", "Events", "TraceEvent"]

EVENT_KINDS = ("violation", "decision", "lifecycle", "recovery")


class Events:
    """One machine's observation stream: a subscriber list per kind."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[Callable[..., None]]] = {
            kind: [] for kind in EVENT_KINDS
        }

    def subscribe(self, kind: str, fn: Callable[..., None]) -> None:
        """Call ``fn`` with every ``kind`` event, after earlier subscribers."""
        self._subscribers[kind].append(fn)

    def subscribers(self, kind: str) -> List[Callable[..., None]]:
        """The live subscriber list of ``kind``. A hot emitter holds it
        and tests its truthiness before building a payload."""
        return self._subscribers[kind]

    def emit(self, kind: str, *payload: Any) -> None:
        for fn in self._subscribers[kind]:
            fn(*payload)

    def clear(self) -> None:
        """Drop every subscriber. The lists are emptied in place, because
        the emitters hold them."""
        for fns in self._subscribers.values():
            fns.clear()


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event."""

    time_ticks: int
    kind: str
    fields: Dict[str, Any]

    def render(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time_ticks:>14d}ps] {self.kind:<12s} {details}"


class EventTrace:
    """Collects a system's events with the simulated time they happened."""

    def __init__(self, engine, max_events: int = 100_000) -> None:
        self._engine = engine
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped = 0

    # -- collection ----------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(self._engine.now, kind, fields))

    @classmethod
    def attach(cls, system, crossings: bool = False, max_events: int = 100_000):
        """Subscribe a new trace to a System's event stream."""
        trace = cls(system.engine, max_events=max_events)
        events = system.events
        events.subscribe(
            "violation",
            lambda record: trace.record(
                "violation",
                accel=record.accel_id,
                paddr=hex(record.paddr),
                write=record.write,
                out_of_bounds=record.out_of_bounds,
            ),
        )
        events.subscribe(
            "lifecycle",
            lambda event, accel_id, info: trace.record(
                "lifecycle", event=event, accel=accel_id, **info
            ),
        )
        events.subscribe(
            "recovery",
            lambda stage, info: trace.record("recovery", stage=stage, **info),
        )
        if crossings:
            events.subscribe(
                "decision",
                lambda accel_id, paddr, write, decision: trace.record(
                    "crossing", accel=accel_id, ppn=hex(paddr >> PAGE_SHIFT),
                    write=write,
                ),
            )
        return trace

    # -- queries ------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def between(self, start_ticks: int, end_ticks: int) -> List[TraceEvent]:
        return [e for e in self.events if start_ticks <= e.time_ticks < end_ticks]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # -- output -------------------------------------------------------------

    def render(self, limit: Optional[int] = None) -> str:
        events = self.events if limit is None else self.events[:limit]
        lines = [e.render() for e in events]
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (max_events)")
        return "\n".join(lines)

    def to_jsonl(self, path: Union[str, "Path"]) -> int:  # noqa: F821
        """Write one JSON object per event; returns the count written."""
        import json  # here, so the simulator's import never loads it

        with open(path, "w") as fh:
            for event in self.events:
                fh.write(
                    json.dumps(
                        {"t": event.time_ticks, "kind": event.kind, **event.fields}
                    )
                    + "\n"
                )
        return len(self.events)
