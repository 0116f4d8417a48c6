"""Discrete-event simulation kernel.

The kernel is a small, dependency-free cousin of SimPy: simulation actors
are Python generators driven by an :class:`Engine`. A generator may yield:

* a non-negative number — sleep for that many ticks;
* an :class:`Event` — suspend until the event is triggered (the event's
  value is sent back into the generator);
* a :class:`Process` — suspend until that process finishes (its return
  value is sent back).

Time is kept in integer *ticks*; :mod:`repro.sim.clock` fixes one tick to a
picosecond so that the 3 GHz CPU, 700 MHz GPU, and 180 GB/s DRAM of the
paper's Table 3 can all be expressed without floating-point drift.

Hot-path design
---------------

The queue holds typed entries ``(when, seq, kind, target, value)`` and
:meth:`Engine.run` dispatches on ``kind`` directly — resuming a process
pushes one tuple, never a closure. ``seq`` is unique per entry, so heap
comparisons stop at ``(when, seq)`` and same-tick ordering is exactly the
order entries were scheduled: the refactor from closure entries to typed
entries preserves event order bit-for-bit. :class:`Event` stores zero or
one waiter inline (the overwhelmingly common case on the memory path) and
only spills to a list for fan-in events.

Entries landing at the *current* tick (zero delays, every ``succeed``
resume, fresh process spawns) skip the heap entirely: they go to a FIFO
``_ready`` deque as bare ``(kind, target, value)`` triples. This is
order-preserving, not an approximation: an entry with ``when == now`` can
only be created while the clock sits at that tick, so every heap entry
for tick T (pushed at an earlier tick) predates — and therefore outranks,
by seq — every ready entry of tick T. :meth:`Engine.run` drains same-tick
heap entries first, then the ready deque in append order, which is
exactly global ``(when, seq)`` order.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from fractions import Fraction
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Engine",
    "Event",
    "Process",
    "BandwidthServer",
    "Resource",
    "SimulationError",
    "TIMEOUT",
]

# Entry kinds dispatched by Engine.run(). A resume entry carries the
# Process and the value to send; a call entry carries a bare callback; a
# call-with-value entry carries a callback taking the event value.
_KIND_RESUME = 0
_KIND_CALL = 1
_KIND_CALL_VALUE = 2


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. negative delays, double triggers)."""


class _Timeout:
    """Singleton sentinel returned by :meth:`Engine.deadline` on expiry."""

    _instance: Optional["_Timeout"] = None

    def __new__(cls) -> "_Timeout":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover
        return "TIMEOUT"

    def __bool__(self) -> bool:
        return False


#: Value a :meth:`Engine.deadline` event carries when the clock wins.
TIMEOUT = _Timeout()


class Event:
    """A one-shot waitable event.

    Processes wait on an event by yielding it. When the event is triggered
    with :meth:`succeed`, every waiter is resumed with the event's value.
    Waiters may also be plain callables (registered via
    :meth:`_add_callback`); they are invoked through the queue with the
    event's value, one scheduling hop after ``succeed`` — the same hop a
    resumed process takes, so callback waiters and process waiters
    interleave identically.

    ``_waiters`` is ``None`` (no waiters), a single waiter, or a list —
    the single-waiter case is the fast path: one pointer store to
    register, zero list allocations.
    """

    __slots__ = ("_engine", "_waiters", "triggered", "value")

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        self._waiters: Any = None
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, resuming all waiters at the current time."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        w = self._waiters
        if w is None:
            return
        self._waiters = None
        ready = self._engine._ready
        if type(w) is list:
            for waiter in w:
                if isinstance(waiter, Process):
                    ready.append((_KIND_RESUME, waiter, value))
                else:
                    ready.append((_KIND_CALL_VALUE, waiter, value))
        elif isinstance(w, Process):
            ready.append((_KIND_RESUME, w, value))
        else:
            ready.append((_KIND_CALL_VALUE, w, value))

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self._engine._schedule_resume(proc, self.value)
            return
        w = self._waiters
        if w is None:
            self._waiters = proc
        elif type(w) is list:
            w.append(proc)
        else:
            self._waiters = [w, proc]

    def _add_callback(self, fn: Callable[[Any], None]) -> None:
        """Register ``fn(value)`` to run (via the queue) once triggered."""
        if self.triggered:
            self._engine._schedule_call(fn, self.value)
            return
        w = self._waiters
        if w is None:
            self._waiters = fn
        elif type(w) is list:
            w.append(fn)
        else:
            self._waiters = [w, fn]


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The generator's ``return`` value becomes the completion value, so a
    parent process can write ``result = yield child``.
    """

    __slots__ = ("_gen", "name")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "") -> None:
        super().__init__(engine)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")


class Engine:
    """The event queue and simulated clock."""

    # No __slots__: there is one Engine per simulation, and callers (test
    # harnesses included) are allowed to hang ad-hoc attributes off it.

    def __init__(self) -> None:
        self._queue: List = []
        self._ready: "deque" = deque()
        self._seq = itertools.count()
        self.now: int = 0
        self._running = False

    # -- scheduling ------------------------------------------------------
    #
    # Invariant: an entry for the *current* tick goes to the ready deque,
    # never the heap. run() relies on this — it assumes any heap entry at
    # the current tick predates (outranks) every ready entry.

    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` ticks."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        delay = int(delay)
        if delay:
            heapq.heappush(
                self._queue,
                (self.now + delay, next(self._seq), _KIND_CALL, fn, None),
            )
        else:
            self._ready.append((_KIND_CALL, fn, None))

    def schedule_at(self, when: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute time ``when`` (>= now)."""
        when = int(when)
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past ({when} < {self.now})")
        if when > self.now:
            heapq.heappush(
                self._queue, (when, next(self._seq), _KIND_CALL, fn, None)
            )
        else:
            self._ready.append((_KIND_CALL, fn, None))

    def _schedule_resume(self, proc: Process, value: Any, delay: int = 0) -> None:
        if delay:
            heapq.heappush(
                self._queue,
                (self.now + delay, next(self._seq), _KIND_RESUME, proc, value),
            )
        else:
            self._ready.append((_KIND_RESUME, proc, value))

    def _schedule_call(self, fn: Callable[[Any], None], value: Any) -> None:
        self._ready.append((_KIND_CALL_VALUE, fn, value))

    # -- processes -------------------------------------------------------

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a simulation process; starts at time now."""
        # Flattened Process construction (one spawn per memory op on the
        # hot path): direct slot stores instead of two __init__ frames.
        proc = Process.__new__(Process)
        proc._engine = self
        proc._waiters = None
        proc.triggered = False
        proc.value = None
        proc._gen = gen
        proc.name = name or getattr(gen, "__name__", "process")
        self._ready.append((_KIND_RESUME, proc, None))
        return proc

    def event(self) -> Event:
        """Create a fresh one-shot event bound to this engine."""
        return Event(self)

    def timeout(self, delay: int) -> Event:
        """An event that triggers ``delay`` ticks from now."""
        evt = Event(self)
        self.schedule(delay, evt.succeed)
        return evt

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers once every given event has triggered."""
        events = list(events)
        done = Event(self)
        remaining = len(events)
        if remaining == 0:
            done.succeed([])
            return done
        results: List[Any] = [None] * remaining
        pending = [remaining]

        def arrive(i: int, value: Any) -> None:
            results[i] = value
            pending[0] -= 1
            if pending[0] == 0:
                done.succeed(list(results))

        for i, evt in enumerate(events):
            evt._add_callback(lambda value, _i=i: arrive(_i, value))
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers when the *first* given event triggers.

        The winner's value becomes the combined event's value; later
        triggers are ignored (one-shot semantics are preserved).
        """
        events = list(events)
        done = Event(self)
        if not events:
            done.succeed(None)
            return done

        def win(value: Any) -> None:
            if not done.triggered:
                done.succeed(value)

        for evt in events:
            evt._add_callback(win)
        return done

    def deadline(self, event: Event, timeout_ticks: int) -> Event:
        """Race ``event`` against the clock (timeout-with-cancel).

        Returns an event that triggers with ``event``'s value if it fires
        within ``timeout_ticks``, or with the :data:`TIMEOUT` sentinel
        otherwise. The inner event is *not* cancelled — a process hung on
        it stays parked (harmless), while the caller regains control.
        """
        if timeout_ticks < 0:
            raise SimulationError(f"negative deadline {timeout_ticks}")
        done = Event(self)

        def win(value: Any) -> None:
            if not done.triggered:
                done.succeed(value)

        def expire() -> None:
            if not done.triggered:
                done.succeed(TIMEOUT)

        event._add_callback(win)
        self.schedule(timeout_ticks, expire)
        return done

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue (optionally up to time ``until``).

        Returns the simulation time after the run. Events scheduled beyond
        ``until`` stay queued so the engine can be resumed.

        The dispatch order is global ``(when, seq)`` order: heap entries
        for the current tick run first (they were scheduled at earlier
        ticks, so they outrank every ready-deque entry), then the ready
        deque drains FIFO, then the clock advances to the next heap entry.
        Resuming a process is inlined in the loop: one entry dispatch is
        the innermost operation of the whole simulator.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        queue = self._queue
        ready = self._ready
        ready_pop = ready.popleft
        ready_append = ready.append
        pop = heapq.heappop
        push = heapq.heappush
        seqnext = self._seq.__next__
        now = self.now
        try:
            while True:
                if queue and queue[0][0] == now:
                    _, _, kind, target, value = pop(queue)
                elif ready:
                    kind, target, value = ready_pop()
                elif queue:
                    when = queue[0][0]
                    if until is not None and when > until:
                        self.now = until
                        break
                    _, _, kind, target, value = pop(queue)
                    now = self.now = when
                else:
                    if until is not None and until > now:
                        self.now = until
                    break
                if kind == _KIND_RESUME:
                    try:
                        result = target._gen.send(value)
                    except StopIteration as stop:
                        target.succeed(stop.value)
                        continue
                    if result.__class__ is int:
                        if result > 0:
                            push(
                                queue,
                                (now + result, seqnext(), _KIND_RESUME, target, None),
                            )
                        elif result == 0:
                            ready_append((_KIND_RESUME, target, None))
                        else:
                            raise SimulationError(
                                f"negative delay {result!r} from {target.name}"
                            )
                    elif isinstance(result, Event):
                        result._add_waiter(target)
                    elif isinstance(result, (int, float)):
                        if result < 0:
                            raise SimulationError(
                                f"negative delay {result!r} from {target.name}"
                            )
                        delay = int(result)
                        if delay:
                            push(
                                queue,
                                (now + delay, seqnext(), _KIND_RESUME, target, None),
                            )
                        else:
                            ready_append((_KIND_RESUME, target, None))
                    else:
                        raise SimulationError(
                            f"process {target.name} yielded unsupported value {result!r}"
                        )
                elif kind == _KIND_CALL:
                    target()
                else:
                    target(value)
        finally:
            self._running = False
        return self.now

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: run a single process to completion, return its value."""
        proc = self.process(gen, name)
        self.run()
        if not proc.triggered:
            raise SimulationError(f"process {proc.name} deadlocked (queue drained)")
        return proc.value

    @property
    def pending_events(self) -> int:
        return len(self._queue) + len(self._ready)


class BandwidthServer:
    """A FIFO server modeling a fixed-rate shared channel (e.g. DRAM).

    Each request occupies the channel for ``nbytes / bytes_per_tick`` ticks;
    requests queue in arrival order, so queueing delay grows without bound
    as offered load approaches the channel's capacity. This is the mechanism
    that reproduces the paper's full-IOMMU DRAM saturation (Fig. 4a).

    The channel-free time is tracked in *exact* integer arithmetic: service
    time per byte is the rational ``ticks_per_second / bytes_per_second``
    (numerator/denominator precomputed), and ``_free_num`` accumulates in
    units of ``1 / _tick_den`` ticks. Long runs therefore cannot drift the
    way repeated float addition can, and the result is identical across
    platforms. The returned delay rounds the exact free time half-to-even,
    matching the ``int(round(float))`` the float implementation used.
    ``busy_ticks`` intentionally keeps the original float accumulation so
    :meth:`utilization` output is unchanged.
    """

    __slots__ = (
        "_engine",
        "bytes_per_tick",
        "_tick_num",
        "_tick_den",
        "_free_num",
        "bytes_served",
        "busy_ticks",
    )

    def __init__(self, engine: Engine, bytes_per_second: float, ticks_per_second: int) -> None:
        if bytes_per_second <= 0:
            raise SimulationError("bandwidth must be positive")
        self._engine = engine
        self.bytes_per_tick = bytes_per_second / float(ticks_per_second)
        ratio = Fraction(ticks_per_second) / Fraction(bytes_per_second)
        self._tick_num = ratio.numerator
        self._tick_den = ratio.denominator
        self._free_num: int = 0
        self.bytes_served: int = 0
        self.busy_ticks: float = 0.0

    @property
    def _free_at(self) -> float:
        """The channel-free time in (float) ticks, for introspection."""
        return self._free_num / self._tick_den

    def request(self, nbytes: int) -> int:
        """Reserve the channel for ``nbytes``; returns total delay in ticks.

        The returned delay includes both time spent queueing behind earlier
        requests and this request's own service time.
        """
        if nbytes < 0:
            raise SimulationError("negative transfer size")
        # The per-DRAM-access and per-issue-slot hot path.
        now = self._engine.now
        den = self._tick_den
        now_num = now * den
        free = self._free_num
        start = free if free > now_num else now_num
        free = start + nbytes * self._tick_num
        quot, rem = divmod(free, den)
        twice = rem * 2
        if twice > den or (twice == den and (quot & 1)):
            quot += 1
        delay = quot - now
        self._free_num = free
        self.bytes_served += nbytes
        self.busy_ticks += nbytes / self.bytes_per_tick
        return delay if delay > 0 else 0

    def utilization(self, elapsed_ticks: int) -> float:
        """Fraction of ``elapsed_ticks`` the channel spent transferring data."""
        if elapsed_ticks <= 0:
            return 0.0
        return min(1.0, self.busy_ticks / float(elapsed_ticks))


class Resource:
    """A counting semaphore with FIFO queueing (e.g. MSHRs, issue slots)."""

    __slots__ = ("_engine", "capacity", "_in_use", "_waiting")

    def __init__(self, engine: Engine, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self._engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiting: "deque[Event]" = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self) -> Event:
        """Returns an event that triggers once a slot is held."""
        evt = Event(self._engine)
        if self._in_use < self.capacity:
            self._in_use += 1
            evt.succeed()
        else:
            self._waiting.append(evt)
        return evt

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without acquire")
        if self._waiting:
            self._waiting.popleft().succeed()
        else:
            self._in_use -= 1
