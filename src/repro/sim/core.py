"""Core discrete-event simulation engine.

The engine follows the classic event-list design: a binary heap of
``(time, priority, sequence, event)`` tuples, popped in order. Model
code is written as generator coroutines wrapped in :class:`Process`;
each ``yield``ed :class:`Event` suspends the process until the event is
processed, at which point the event's value is sent back into the
generator (or its exception thrown into it).

Only simulation-domain concepts live here; bandwidth sharing and
resources are layered on top in sibling modules.

Priorities order the events of one instant: ``URGENT`` (process starts
and interrupts), ``NORMAL`` (everything else), then ``LATE``
(:meth:`Simulator.schedule_late`), which runs after every other event
at its time, including events queued after it.

Hot-path design:

- **``Simulator.periodic``** — a dedicated wakeup path for fixed-interval
  daemons (heartbeats, samplers, logging ticks). One reusable heap
  entry per daemon replaces a generator frame plus a fresh ``Timeout``
  per tick, while scheduling with the exact sequence-number pattern the
  equivalent generator loop would produce (same-instant ordering, and
  therefore seeded trace digests, are unchanged).
- **One run loop** — :meth:`Simulator.run` binds the heap to a local,
  inlines :meth:`Simulator.step`, and ticks a started pure periodic at
  the heap root in place (one ``heapreplace`` sift instead of a pop and
  a push).
- **One frame per event** — every constructor (timeouts, process starts
  and interrupts, conditions, periodics, the :meth:`Simulator.schedule_late`
  event) and every trigger (``succeed``/``fail``, a condition deciding,
  a process ending) writes its slots and pushes
  ``(time, priority, seq, event)`` in its own frame, with no
  ``Event.__init__`` or scheduling helper under it; a :class:`Timeout`
  dispatches its callbacks itself. A :class:`Process` binds ``_resume``
  once and appends that object to each event it waits on; a
  :class:`Condition` binds ``_check`` once per attach or detach pass.
  Each push claims its sequence number at the point the helper did, so
  same-instant order cannot move.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Generator, Iterable
from heapq import heappop, heappush, heapreplace
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "IMPL_KNOBS",
    "Interrupt",
    "Periodic",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "impl_choice",
]

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for high-urgency events (process interrupts).
URGENT = 0
#: Priority used for end-of-instant work (:meth:`Simulator.schedule_late`):
#: it sorts after every ordinary event at the same time, including ones
#: queued later.
LATE = 2


#: The implementation-mode knobs: each environment variable and the
#: values it accepts, ``""`` (unset) selecting the default. The
#: flow-scheduler choice, the trial cache key and the differential
#: matrix all read this table, so a new mode cannot be left out of one.
IMPL_KNOBS: dict[str, tuple[str, ...]] = {
    "REPRO_SCHEDULER": ("", "incremental", "columnar", "reference"),
}


def impl_choice(knob: str) -> str:
    """The value of implementation knob ``knob`` (a key of
    :data:`IMPL_KNOBS`). Any value outside the table raises, so a
    mistyped oracle run cannot silently check the default
    implementation against itself."""
    choice = os.environ.get(knob, "")
    if choice not in IMPL_KNOBS[knob]:
        raise SimulationError(f"unknown {knob} {choice!r}")
    return choice


def _impure_tick(event: "Periodic") -> "SimulationError":
    return SimulationError(
        f"pure periodic {event.name!r} scheduled an event during its tick — "
        "drop pure=True or make the callback pure"
    )


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An occurrence at a point in simulated time.

    Events move through three states: *pending* (created, not yet
    triggered), *triggered* (scheduled on the event list with a value or
    an exception) and *processed* (callbacks have run). Processes wait
    on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_processed", "_defused")

    #: Class-level default consulted by the run loop's single-load fast
    #: check; only a started, uncancelled pure Periodic overrides it
    #: (via its ``_fast`` slot) to claim the root-replace tick path.
    _fast = False

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._exc: BaseException | None = None
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value/exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event was triggered successfully."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value is not available until the event triggers")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, NORMAL, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        If no process ever waits on the failed event and it is not
        :meth:`defused <defuse>`, the exception propagates out of
        :meth:`Simulator.run` — silent failures are bugs.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() requires an exception, got {exc!r}")
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._exc = exc
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, NORMAL, seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled even if nobody waits on it."""
        self._defused = True

    # -- callback plumbing -------------------------------------------------
    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately at the current time.
            cb(self)
        else:
            self.callbacks.append(cb)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for cb in callbacks or ():
            cb(self)
        if self._exc is not None and not callbacks and not self._defused:
            raise self._exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    A pending timeout can be :meth:`cancel`\\ led; the heap entry stays
    (binary heaps cannot delete arbitrary entries) but is discarded
    without running callbacks when popped. This is what lets the flow
    scheduler keep exactly one live completion timer instead of
    accumulating thousands of version-dead entries.
    """

    __slots__ = ("delay", "_cancelled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        self._cancelled = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now + delay, NORMAL, seq, self))

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Deactivate the timeout: callbacks will never run.

        Cancelling an already-processed timeout is a no-op.
        """
        if self._cancelled or self._processed:
            return
        self._cancelled = True

    def _process(self) -> None:
        # A timeout never fails, so there is no unhandled-failure check.
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if not self._cancelled:
            for cb in callbacks:
                cb(self)


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        self.sim = sim
        self.callbacks = [process._resume_cb]
        self._value = None
        self._exc = None
        self._triggered = True
        self._processed = False
        self._defused = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, URGENT, seq, self))


class _InterruptEvent(Event):
    """Internal event that throws :class:`Interrupt` into a process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process", cause: Any) -> None:
        self.sim = sim
        self.callbacks = [process._resume_cb]
        self._value = None
        self._exc = Interrupt(cause)
        self._triggered = True
        self._processed = False
        self._defused = True
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, URGENT, seq, self))


class Process(Event):
    """A running generator coroutine; also an event that triggers when
    the generator returns (value = return value) or raises.
    """

    __slots__ = ("gen", "name", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str | None = None) -> None:
        if not hasattr(gen, "throw"):
            raise SimulationError(f"{gen!r} is not a generator")
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self._defused = False
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        #: The event this process is currently waiting on, if any.
        self._target: Event | None = None
        #: ``_resume`` bound once for the process's life: every wait
        #: appends this one object, and detaching finds it by identity.
        #: Dropped when the process ends, which breaks the
        #: process -> bound method -> process cycle.
        self._resume_cb: Callable[[Event], None] | None = self._resume
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting on an event detaches it from that event
        first (the event may still trigger, but will not resume this
        process for that wait).
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        _InterruptEvent(self.sim, self, cause)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            # Process already ended (e.g. interrupt raced with completion).
            return
        # Detach from the current target; an interrupt may arrive while we
        # are still registered on another event.
        target = self._target
        if target is not None and target is not event:
            cbs = target.callbacks
            if cbs is not None and self._resume_cb in cbs:
                cbs.remove(self._resume_cb)
            if not cbs:
                # Abandoned with no other listeners: a later failure of
                # this event is expected fallout (e.g. flows cancelled
                # during cleanup), not an unhandled error.
                target._defused = True
        self._target = None

        sim = self.sim
        try:
            if event._exc is not None:
                event._defused = True
                next_ev = self.gen.throw(event._exc)
            else:
                next_ev = self.gen.send(event._value)
        except StopIteration as stop:
            self._triggered = True
            self._value = stop.value
            self._resume_cb = None
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim._now, NORMAL, seq, self))
            return
        except BaseException as exc:
            self._triggered = True
            self._exc = exc
            self._resume_cb = None
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim._now, NORMAL, seq, self))
            return

        if not isinstance(next_ev, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {next_ev!r}"
            )
        if next_ev.sim is not sim:
            raise SimulationError("cannot wait on an event from another simulator")
        self._target = next_ev
        cbs = next_ev.callbacks
        if cbs is None:
            # Already processed: resume at once, as _add_callback would.
            self._resume(next_ev)
        else:
            cbs.append(self._resume_cb)


class Periodic(Event):
    """A reusable fixed-interval wakeup: calls ``fn()`` every
    ``interval`` simulated seconds until ``fn`` returns ``False`` or
    :meth:`cancel` is called.

    One heap entry is reused for the daemon's whole life — no generator
    frame, no per-tick :class:`Timeout`. Scheduling mirrors the
    equivalent generator loop exactly: construction takes the urgent
    zero-delay slot an :class:`Initialize` would, the first tick's entry
    is pushed while that slot is processed (where the loop's first
    ``yield timeout`` would run), and each later tick re-pushes *after*
    ``fn`` runs (where the loop body would create its next timeout). The
    same sequence numbers are claimed at the same instants, so
    same-instant event ordering — and with it seeded trace digests — is
    identical across the two representations.

    With ``immediate=True``, ``fn`` also runs at the start instant (the
    generator-loop shape whose body precedes its first ``yield``).

    With ``pure=True`` the caller promises ``fn`` never creates or
    triggers events (heartbeat-style field updates only). The run loop
    then ticks such a periodic by *replacing* the heap root in place —
    one sift instead of a pop + push, and no ``_process`` dispatch. The
    promise is enforced: a pure ``fn`` that allocates an event sequence
    number raises ``SimulationError`` at the offending tick. Purity
    cannot change scheduling order (the fn has nothing to order
    against), so it is a pure speed knob.

    A ``Periodic`` is not waitable — it triggers nothing and carries no
    value; use a process for anything that needs to observe completion.
    """

    __slots__ = ("interval", "fn", "name", "pure", "_fast",
                 "_immediate", "_started", "_cancelled")

    def __init__(self, sim: "Simulator", interval: float,
                 fn: Callable[[], Any], immediate: bool = False,
                 pure: bool = False, name: str | None = None) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive: {interval}")
        self.sim = sim
        self.callbacks = None  # never waitable
        self._value = None
        self._exc = None
        self._triggered = True
        self._processed = False
        self._defused = False
        self.interval = interval
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "periodic")
        self.pure = pure
        self._fast = False
        self._immediate = immediate
        self._started = False
        self._cancelled = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, URGENT, seq, self))

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop the wakeups; the pending heap entry is lazily discarded."""
        self._cancelled = True
        self._fast = False

    def _process(self) -> None:
        # The run loop ticks started pure periodics without popping them;
        # this pop-based path handles everything else (the start slot,
        # non-pure ticks, cancelled discards, step()-driven tests) with
        # identical sequence-number allocation.
        if self._cancelled:
            self._processed = True
            return
        if not self._started:
            # The Initialize-equivalent slot: claim the first tick's
            # sequence number here, run fn only if the loop shape would.
            self._started = True
            if self._immediate and self.fn() is False:
                self._processed = True
                return
            # Started, live, pure: from now on the run loop ticks this
            # event by replacing the heap root in place.
            self._fast = self.pure
        elif self.fn() is False:
            self._processed = True
            self._fast = False
            return
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now + self.interval, NORMAL, seq, self))


class Condition(Event):
    """Base for composite events over a fixed set of child events.

    Once the condition triggers it detaches its callback from every
    still-untriggered child, and defuses children left with no other
    listener: a loser of a decided :class:`AnyOf` (or the stragglers of
    a failed-fast :class:`AllOf`) that later fails is abandoned fallout,
    not an unhandled error escaping :meth:`Simulator.run` — and the
    condition no longer pins a callback reference on every loser.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self._defused = False
        self.events = events = list(events)
        for ev in events:
            if ev.sim is not sim:
                raise SimulationError("all condition events must share one simulator")
        self._remaining = len(events)
        if not events:
            self._on_empty()
            return
        # One bound method for every child; a processed child runs it at
        # once, as _add_callback would. Once a processed child has decided
        # the condition the rest are losers: leave them unsubscribed and
        # defuse those nobody else listens to, as _abandon_rest does.
        check = self._check
        for ev in events:
            cbs = ev.callbacks
            if self._triggered:
                if cbs == []:
                    ev._defused = True
            elif cbs is None:
                check(ev)
            else:
                cbs.append(check)

    def _abandon_rest(self) -> None:
        """Unsubscribe from children that have not triggered yet."""
        check = self._check
        for ev in self.events:
            cbs = ev.callbacks
            if cbs is None or ev._triggered:
                continue
            if check in cbs:
                cbs.remove(check)
            if not cbs:
                ev._defused = True

    def _on_empty(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when every child event has triggered; value is the list
    of child values in their original order. Fails fast if any child
    fails.

    ``AllOf([])`` is vacuously satisfied and succeeds immediately with
    an empty value list — "wait for all of nothing" is a completed wait.
    """

    __slots__ = ()

    def _on_empty(self) -> None:
        self.succeed([])

    def _check(self, event: Event) -> None:
        # Triggers inline: succeed()/fail() minus checks that cannot fire.
        if self._triggered:
            return
        if event._exc is not None:
            event._defused = True
            self._exc = event._exc
        else:
            self._remaining -= 1
            if self._remaining:
                return
            self._value = [ev._value for ev in self.events]
        self._triggered = True
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, NORMAL, seq, self))
        if self._exc is not None:
            self._abandon_rest()


class AnyOf(Condition):
    """Triggers when the first child event triggers; value is that
    child's value. Fails if the first child to trigger fails.

    ``AnyOf([])`` raises :class:`SimulationError`: none of zero events
    can ever trigger, and succeeding immediately (the old behaviour)
    silently masked callers that built an empty child list by mistake.
    """

    __slots__ = ()

    def _on_empty(self) -> None:
        raise SimulationError(
            "AnyOf requires at least one event: an empty AnyOf can never trigger"
        )

    def _check(self, event: Event) -> None:
        # Triggers inline: succeed()/fail() minus checks that cannot fire.
        if self._triggered:
            return
        if event._exc is not None:
            event._defused = True
            self._exc = event._exc
        else:
            self._value = event._value
        self._triggered = True
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, NORMAL, seq, self))
        self._abandon_rest()


class Simulator:
    """Owns simulated time and the pending-event heap."""

    # The run loop stores _now/_seq once per event; slot storage keeps
    # those off a dict lookup.
    __slots__ = ("_now", "_heap", "_seq")

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event construction ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any], name: str | None = None) -> Process:
        """Start running ``gen`` as a process at the current time."""
        return Process(self, gen, name=name)

    def periodic(self, interval: float, fn: Callable[[], Any],
                 immediate: bool = False, pure: bool = False,
                 name: str | None = None) -> Periodic:
        """Run ``fn()`` every ``interval`` seconds (first run at
        ``now + interval``, or at the current instant too with
        ``immediate=True``) until it returns ``False`` or the returned
        handle's ``cancel()`` is called. ``pure=True`` asserts ``fn``
        never creates events, so :meth:`run` may tick it by replacing
        the heap root in place (see :class:`Periodic`).

        This is the allocation-free representation of the ubiquitous
        ``while True: yield sim.timeout(interval); body()`` daemon loop;
        the two representations schedule identically (see
        :class:`Periodic`).
        """
        return Periodic(self, interval, fn, immediate=immediate, pure=pure, name=name)

    def schedule_late(self, cb: Callable[[Event], None]) -> Event:
        """Call ``cb(event)`` at the end of the current instant: after
        every other event at this time, including events queued after
        this call or chained from their callbacks, and before any event
        at a later time."""
        event = Event.__new__(Event)  # no __init__: the slots are written here
        event.sim = self
        event.callbacks = [cb]
        event._value = None
        event._exc = None
        event._triggered = True
        event._processed = False
        event._defused = False
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now, LATE, seq, event))
        return event

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        when, _, _, event = heappop(self._heap)
        self._now = when
        event._process()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap drains, ``until`` time passes, or an
        ``until`` event triggers (returning its value).
        """
        stop_event: Event | None = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(f"until={stop_time} is in the past (now={self._now})")

        # Hot loop: locals-bound heap, step() inlined, and started pure
        # periodics ticked by replacing the heap root in place
        # (heapreplace: one sift, no pop+push, no _process dispatch).
        # With no stop condition, a heap holding only live periodics
        # spins forever — exactly as the equivalent while-True generator
        # loops would.
        heap = self._heap
        normal = NORMAL
        while heap:
            if stop_event is not None and stop_event._processed:
                return stop_event.value
            when, _, _, event = heap[0]
            if when > stop_time:
                self._now = stop_time
                return None
            self._now = when
            if event._fast:
                self._seq = seq = self._seq + 1
                heapreplace(heap, (when + event.interval, normal, seq, event))
                if event.fn() is False:
                    event._cancelled = True
                    event._fast = False
                if self._seq != seq:
                    raise _impure_tick(event)
            else:
                heappop(heap)
                event._process()
        # The heap emptied before any stop.
        if stop_event is not None:
            if stop_event._processed:
                return stop_event.value
            raise SimulationError("simulation ran out of events before `until` event triggered")
        if stop_time != float("inf"):
            self._now = stop_time
        return None
