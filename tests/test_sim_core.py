"""Unit tests for the discrete-event simulation kernel."""

import hashlib
import random

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, Simulator
from repro.sim.core import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class _LoopPeriodic:
    """Test oracle for :meth:`Simulator.periodic`: the generator loop a
    :class:`Periodic` replaces, with the same ``immediate``,
    stop-on-``False`` and ``cancel()`` shape."""

    def __init__(self, sim, interval, fn, immediate=False):
        self.cancelled = False

        def loop():
            if immediate and fn() is False:
                return
            while True:
                yield sim.timeout(interval)
                if self.cancelled or fn() is False:
                    return

        sim.process(loop())

    def cancel(self):
        self.cancelled = True


def _start_periodic(sim, oracle, interval, fn, immediate=False, pure=False):
    """``sim.periodic``, or with ``oracle`` the generator loop it replaces."""
    if oracle:
        return _LoopPeriodic(sim, interval, fn, immediate=immediate)
    return sim.periodic(interval, fn, immediate=immediate, pure=pure)


class TestTimeAndRun:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        done = []

        def proc(sim):
            yield sim.timeout(3.5)
            done.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert done == [3.5]

    def test_run_until_time_stops_early(self, sim):
        done = []

        def proc(sim):
            yield sim.timeout(10)
            done.append("late")

        sim.process(proc(sim))
        sim.run(until=5)
        assert done == []
        assert sim.now == 5

    def test_run_until_event_returns_value(self, sim):
        def proc(sim):
            yield sim.timeout(2)
            return 42

        p = sim.process(proc(sim))
        assert sim.run(until=p) == 42

    def test_run_until_past_time_raises(self, sim):
        sim.process(iter_to_gen(sim, 5))
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1)

    def test_run_out_of_events_before_until_event(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            sim.run(until=ev)

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_zero_timeout_runs_in_order(self, sim):
        order = []

        def a(sim):
            yield sim.timeout(0)
            order.append("a")

        def b(sim):
            yield sim.timeout(0)
            order.append("b")

        sim.process(a(sim))
        sim.process(b(sim))
        sim.run()
        assert order == ["a", "b"]

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(7)
        assert sim.peek() == 7


def iter_to_gen(sim, t):
    yield sim.timeout(t)


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        got = []

        def proc(sim):
            got.append((yield ev))

        sim.process(proc(sim))

        def trigger(sim):
            yield sim.timeout(1)
            ev.succeed("payload")

        sim.process(trigger(sim))
        sim.run()
        assert got == ["payload"]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError())

    def test_fail_propagates_into_process(self, sim):
        ev = sim.event()
        caught = []

        def proc(sim):
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(proc(sim))
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_failed_event_raises_from_run(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("nobody is listening"))
        with pytest.raises(RuntimeError, match="nobody is listening"):
            sim.run()

    def test_defused_failed_event_is_silent(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("ignored"))
        ev.defuse()
        sim.run()

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed(9)
        sim.run()
        got = []
        ev._add_callback(lambda e: got.append(e.value))
        assert got == [9]


class TestProcesses:
    def test_process_return_value(self, sim):
        def child(sim):
            yield sim.timeout(1)
            return "rv"

        def parent(sim, out):
            out.append((yield sim.process(child(sim))))

        out = []
        sim.process(parent(sim, out))
        sim.run()
        assert out == ["rv"]

    def test_exception_in_child_propagates_to_waiting_parent(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise ValueError("child broke")

        def parent(sim, out):
            try:
                yield sim.process(child(sim))
            except ValueError as exc:
                out.append(str(exc))

        out = []
        sim.process(parent(sim, out))
        sim.run()
        assert out == ["child broke"]

    def test_unwaited_process_exception_crashes_run(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise ValueError("unobserved")

        sim.process(child(sim))
        with pytest.raises(ValueError, match="unobserved"):
            sim.run()

    def test_interrupt_wakes_sleeping_process(self, sim):
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100)
            except Interrupt as i:
                log.append((sim.now, i.cause))

        p = sim.process(sleeper(sim))

        def interrupter(sim):
            yield sim.timeout(3)
            p.interrupt("wakeup")

        sim.process(interrupter(sim))
        sim.run()
        assert log == [(3, "wakeup")]

    def test_interrupt_finished_process_is_error(self, sim):
        def quick(sim):
            yield sim.timeout(1)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_rewait_original_event(self, sim):
        log = []

        def sleeper(sim):
            t = sim.timeout(10, value="slept")
            while True:
                try:
                    log.append((yield t))
                    return
                except Interrupt:
                    log.append("interrupted")

        p = sim.process(sleeper(sim))

        def interrupter(sim):
            yield sim.timeout(2)
            p.interrupt()

        sim.process(interrupter(sim))
        sim.run()
        assert log == ["interrupted", "slept"]
        assert sim.now == 10

    def test_is_alive(self, sim):
        def quick(sim):
            yield sim.timeout(5)

        p = sim.process(quick(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_yielding_non_event_is_error(self, sim):
        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_active_process_visible_during_execution(self, sim):
        seen = []

        def proc(sim):
            seen.append(sim.active_process)
            yield sim.timeout(0)

        p = sim.process(proc(sim))
        sim.run()
        assert seen == [p]
        assert sim.active_process is None


class TestConditions:
    def test_all_of_collects_values_in_order(self, sim):
        def mk(sim, t, v):
            yield sim.timeout(t)
            return v

        out = []

        def waiter(sim):
            ps = [sim.process(mk(sim, t, v)) for t, v in [(3, "a"), (1, "b"), (2, "c")]]
            out.append((yield AllOf(sim, ps)))

        sim.process(waiter(sim))
        sim.run()
        assert out == [["a", "b", "c"]]
        assert sim.now == 3

    def test_any_of_returns_first_value(self, sim):
        def mk(sim, t, v):
            yield sim.timeout(t)
            return v

        out = []

        def waiter(sim):
            ps = [sim.process(mk(sim, t, v)) for t, v in [(3, "slow"), (1, "fast")]]
            out.append((yield AnyOf(sim, ps)))

        sim.process(waiter(sim))
        sim.run()
        assert out == ["fast"]

    def test_all_of_empty_triggers_immediately(self, sim):
        out = []

        def waiter(sim):
            out.append((yield AllOf(sim, [])))

        sim.process(waiter(sim))
        sim.run()
        assert out == [[]]
        assert sim.now == 0

    def test_all_of_fails_fast_on_child_failure(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise RuntimeError("fail-fast")

        def slow(sim):
            yield sim.timeout(100)

        caught = []

        def waiter(sim):
            try:
                yield AllOf(sim, [sim.process(bad(sim)), sim.process(slow(sim))])
            except RuntimeError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(waiter(sim))
        sim.run()
        assert caught == [(1, "fail-fast")]

    def test_any_of_helper_methods(self, sim):
        ev1, ev2 = sim.event(), sim.event()
        any_ev = sim.any_of([ev1, ev2])
        all_ev = sim.all_of([ev1, ev2])
        ev1.succeed("x")
        ev2.succeed("y")
        sim.run()
        assert any_ev.value == "x"
        assert all_ev.value == ["x", "y"]


class TestTimeoutPooling:
    """Repeated timeouts (the class name is kept so existing test ids
    stay stable)."""

    def test_recycled_timeout_waits_correctly(self, sim):
        times = []

        def proc(sim):
            for _ in range(5):
                yield sim.timeout(1.5)
                times.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert times == [1.5, 3.0, 4.5, 6.0, 7.5]

    def test_cancelled_timeouts_are_dropped_lazily(self, sim):
        """A cancelled timeout keeps its heap entry until popped, never
        runs its callbacks, and leaves the live timers around it on
        time."""
        fired = []
        for i in range(1, 6):
            sim.timeout(float(i))._add_callback(lambda ev, i=i: fired.append((sim.now, i)))
        doomed = [sim.timeout(3.5) for _ in range(150)]
        for t in doomed:
            t._add_callback(lambda ev: fired.append((sim.now, "doomed")))
            t.cancel()
        assert len(sim._heap) == 155 and all(t.cancelled for t in doomed)
        sim.run()
        assert fired == [(1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4), (5.0, 5)]
        assert all(t.processed for t in doomed)

class TestPeriodic:
    """The allocation-free periodic-wakeup path."""

    @pytest.mark.parametrize("pure", [False, True])
    def test_ticks_at_interval(self, sim, pure):
        ticks = []
        sim.periodic(2.0, lambda: ticks.append(sim.now), pure=pure)
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]

    @pytest.mark.parametrize("pure", [False, True])
    def test_immediate_first_tick(self, sim, pure):
        ticks = []
        sim.periodic(2.0, lambda: ticks.append(sim.now), immediate=True, pure=pure)
        sim.run(until=5.0)
        assert ticks == [0.0, 2.0, 4.0]

    @pytest.mark.parametrize("pure", [False, True])
    def test_stops_when_fn_returns_false(self, sim, pure):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                return False

        sim.periodic(1.0, tick, pure=pure)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("pure", [False, True])
    def test_cancel_stops_ticks(self, sim, pure):
        ticks = []
        p = sim.periodic(1.0, lambda: ticks.append(sim.now), pure=pure)

        def canceller(sim):
            yield sim.timeout(2.5)
            p.cancel()

        sim.process(canceller(sim))
        sim.run(until=6.0)
        assert ticks == [1.0, 2.0]
        assert p.cancelled

    def test_nonpositive_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.periodic(0.0, lambda: None)

    def test_impure_tick_raises(self, sim):
        def bad_tick():
            sim.timeout(5.0)  # schedules — violates the pure contract

        sim.periodic(1.0, bad_tick, pure=True)
        with pytest.raises(SimulationError, match="pure periodic"):
            sim.run(until=10.0)

    def test_impure_ticks_interleave_like_generator_loops(self):
        """Non-pure periodics whose ticks schedule events, sharing
        instants with plain timeouts, a cancel and a self-stop, order
        every event exactly as their generator loops would."""

        def trace(oracle):
            sim = Simulator()
            log = []

            def ticker(tag, stop_at=None):
                def tick():
                    log.append((sim.now, tag))
                    sim.timeout(0.0)._add_callback(
                        lambda _ev: log.append((sim.now, tag, "follow-up")))
                    sim.timeout(0.5)._add_callback(
                        lambda _ev: log.append((sim.now, tag, "half")))
                    if stop_at is not None and sim.now >= stop_at:
                        return False

                return tick

            _start_periodic(sim, oracle, 1.0, ticker("a"))
            _start_periodic(sim, oracle, 0.5, ticker("b", stop_at=2.0), immediate=True)
            victim = _start_periodic(sim, oracle, 1.5, ticker("c"))

            def timeouts(sim):
                for _ in range(8):
                    yield sim.timeout(0.5)
                    log.append((sim.now, "timeout"))
                    if sim.now == 3.0:
                        victim.cancel()

            sim.process(timeouts(sim))
            sim.run(until=5.0)
            return log

        default = trace(oracle=False)
        assert default == trace(oracle=True)
        assert (1.0, "a") in default and (0.0, "b") in default
        assert max(t for t, tag, *_ in default if tag == "b") == 2.5
        assert [t for t, tag, *rest in default if tag == "c" and not rest] == [1.5, 3.0]


class TestBatchTick:
    """A same-instant cohort of pure periodics, ticked in place at the
    heap root, against the generator loops they replace."""

    COHORT = 64

    def _tick_trace(self, oracle, wire=None):
        sim = Simulator()
        ticks = []
        handles = []
        for i in range(self.COHORT):
            def tick(i=i):
                ticks.append((sim.now, i))

            handles.append(_start_periodic(sim, oracle, 1.0, tick, pure=True))
        if wire is not None:
            wire(sim, handles, ticks, oracle)
        sim.run(until=4.5)
        return ticks

    def _compare(self, wire=None):
        default = self._tick_trace(False, wire)
        assert default == self._tick_trace(True, wire)
        return default

    def test_batch_matches_one_at_a_time(self):
        ticks = self._compare()
        assert len(ticks) == self.COHORT * 4

    def test_shared_instant_aborts_batch(self):
        def wire(sim, handles, ticks, oracle):
            # a plain timeout landing on a cohort instant interleaves
            # with the in-place ticks in sequence order
            t = sim.timeout(2.0)
            t._add_callback(lambda ev: ticks.append((sim.now, "timeout")))

        ticks = self._compare(wire)
        assert (2.0, "timeout") in ticks

    def test_cancel_from_within_cohort(self):
        def wire(sim, handles, ticks, oracle):
            victim = handles[-1]

            def assassin(sim):
                yield sim.timeout(2.5)
                victim.cancel()

            sim.process(assassin(sim))

        ticks = self._compare(wire)
        # the victim ticked at 1.0 and 2.0 only
        victim_ticks = [t for t, i in ticks if i == self.COHORT - 1]
        assert victim_ticks == [1.0, 2.0]

    def test_stop_from_within_batch(self):
        def wire(sim, handles, ticks, oracle):
            # a cohort member retires itself on its second tick
            calls = []

            def quitter():
                calls.append(sim.now)
                ticks.append((sim.now, "quitter"))
                if len(calls) == 2:
                    return False

            handles.append(_start_periodic(sim, oracle, 1.0, quitter, pure=True))

        ticks = self._compare(wire)
        quitter_ticks = [t for t, i in ticks if i == "quitter"]
        assert quitter_ticks == [1.0, 2.0]


class TestLateEvents:
    """``Simulator.schedule_late`` runs its callback at the end of the
    current instant."""

    @pytest.mark.parametrize("oracle", [False, True], ids=["default", "reference"])
    def test_late_runs_after_every_event_of_its_instant(self, sim, oracle):
        """``reference`` ticks the periodic as its generator loop."""
        order = []

        def log(tag):
            return lambda _event=None: order.append((sim.now, tag))

        _start_periodic(sim, oracle, 1.0, log("tick"), pure=True)
        sim.timeout(1.5)._add_callback(log("later"))

        def worker(sim):
            yield sim.timeout(0.0)
            order.append((sim.now, "worker"))

        def arm(sim):
            yield sim.timeout(1.0)
            late = sim.schedule_late(log("late"))
            # Queued after the late event at the same instant, directly
            # and chained from callbacks and processes.
            sim.timeout(0.0)._add_callback(log("queued after"))
            child = sim.event()
            child._add_callback(log("chained"))
            sim.timeout(0.0)._add_callback(lambda _event: child.succeed())
            yield sim.process(worker(sim))
            order.append((sim.now, "arm resumed"))
            yield late
            order.append((sim.now, "waited on late"))

        sim.process(arm(sim))
        sim.run(until=1.5)
        assert order == [
            (1.0, "tick"), (1.0, "queued after"), (1.0, "worker"),
            (1.0, "chained"), (1.0, "arm resumed"), (1.0, "late"),
            (1.0, "waited on late"), (1.5, "later"),
        ]

    def test_late_events_run_in_scheduling_order(self, sim):
        order = []
        sim.schedule_late(lambda _event: order.append("first"))
        sim.schedule_late(lambda _event: order.append("second"))
        sim.timeout(0.0)._add_callback(lambda _event: order.append("normal"))
        sim.run()
        assert order == ["normal", "first", "second"]
        assert sim.now == 0.0


class TestConditionDetach:
    """Triggered conditions unsubscribe from their remaining children."""

    def test_late_failing_anyof_loser_does_not_escape(self, sim):
        winner, loser = sim.event(), sim.event()
        cond = sim.any_of([winner, loser])

        def driver(sim):
            yield sim.timeout(1.0)
            winner.succeed("won")
            yield sim.timeout(1.0)
            loser.fail(RuntimeError("late loser"))

        sim.process(driver(sim))
        sim.run()  # must not raise: the loser's failure is defused
        assert cond.value == "won"

    def test_allof_detaches_after_fail_fast(self, sim):
        bad, slow = sim.event(), sim.event()
        cond = sim.all_of([bad, slow])

        def driver(sim):
            yield sim.timeout(1.0)
            bad.fail(RuntimeError("first failure"))
            yield sim.timeout(1.0)
            slow.fail(RuntimeError("second failure"))

        sim.process(driver(sim))
        cond.defuse()
        sim.run()  # the second failure must also be defused
        assert not cond.ok
        assert str(cond._exc) == "first failure"

    def test_anyof_winner_detaches_loser_callbacks(self, sim):
        winner, loser = sim.event(), sim.event()
        cond = sim.any_of([winner, loser])
        assert any(cb == cond._check for cb in loser.callbacks)
        winner.succeed("x")
        sim.run()
        assert not any(cb == cond._check for cb in (loser.callbacks or []))


def _kernel_program(seed):
    """A seeded random kernel program; returns its resume log of
    ``(now, label, value or exception type)`` entries.

    Eight workers take random guarded and unguarded waits (timeouts,
    shared signals that succeed or fail, ``any_of`` races whose losers
    fail later, ``all_of`` joins that fail fast, a cancelled timeout,
    waits on finished and unfinished processes), an interrupter
    interrupts them at random, one process is interrupted before it
    starts, and pure and non-pure periodics and ``schedule_late``
    callbacks share their instants. Delays are multiples of 0.5, so most
    entries tie on time and the log pins same-instant order.
    """
    rng = random.Random(seed)
    sim = Simulator()
    log = []

    def note(label, value=None):
        log.append((sim.now, label, value))

    def late(label):
        sim.schedule_late(lambda _ev: note(label, "late"))

    signals = [sim.event() for _ in range(6)]
    losers = []
    delays = (0.0, 0.5, 1.0, 1.5)

    def quick():
        note("quick")
        return "quick-done"
        yield  # pragma: no cover - makes this a generator

    finished = sim.process(quick(), name="quick")
    workers = []

    def wait(label, ev):
        try:
            value = yield ev
        except Interrupt as intr:
            note(label, ("interrupt", intr.cause))
        except Exception as exc:  # every failure is logged
            note(label, type(exc).__name__)
        else:
            note(label, value)

    def worker(w):
        for step in range(16):
            label = f"w{w}.{step}"
            kind = rng.randrange(8)
            if kind == 0:
                ev = sim.timeout(rng.choice(delays), value=label)
            elif kind == 1:
                ev = signals[rng.randrange(len(signals))]
            elif kind == 2:
                loser = sim.event()
                losers.append(loser)
                ev = sim.any_of([sim.timeout(rng.choice(delays), label), loser])
            elif kind == 3:
                bad = sim.event()
                sim.timeout(rng.choice(delays))._add_callback(
                    lambda _ev, bad=bad: bad.fail(KeyError(label)))
                ev = sim.all_of([sim.timeout(rng.choice(delays) + 0.5, label), bad])
            elif kind == 4:
                doomed = sim.timeout(0.5, "doomed")
                doomed.cancel()
                ev = sim.any_of([doomed, sim.timeout(1.0, label)])
            elif kind == 5:
                # A finished process, or a guarded wait on a worker that
                # may never finish.
                target = finished if rng.random() < 0.5 else workers[rng.randrange(len(workers))]
                ev = sim.any_of([target, sim.timeout(2.0, "gave-up")])
            elif kind == 6:
                late(label)
                ev = sim.timeout(0.0, label)
            else:
                ev = sim.all_of([sim.timeout(rng.choice(delays), i) for i in range(3)])
            yield from wait(label, ev)
        return f"w{w}-done"

    for w in range(8):
        workers.append(sim.process(worker(w), name=f"w{w}"))

    def signaller():
        for i, ev in enumerate(signals):
            yield sim.timeout(rng.choice(delays) + 0.5)
            if ev.triggered:  # an impure tick got there first
                note("signal-taken", i)
            elif rng.random() < 0.5:
                ev.succeed(f"sig{i}")
            else:
                ev.fail(ValueError(f"sig{i}"))
                ev.defuse()
            note("signal", i)

    def interrupter():
        early = sim.process(wait("early", sim.timeout(1.0, "early")), name="early")
        early.interrupt("before-start")
        for i in range(16):
            yield sim.timeout(rng.choice(delays) + 0.5)
            victim = workers[rng.randrange(len(workers))]
            if victim.is_alive:
                victim.interrupt(f"int{i}")

    def loser_failer():
        for _ in range(30):
            yield sim.timeout(1.0)
            for loser in losers:
                if not loser.triggered:
                    loser.fail(RuntimeError("loser"))
                    note("loser-failed")

    def impure_tick():
        note("tick")
        late("tick")
        sim.timeout(0.5)._add_callback(lambda _ev: note("tick-half"))
        if rng.random() < 0.3:
            ev = signals[rng.randrange(len(signals))]
            if not ev.triggered:
                ev.succeed("tick-signal")

    pure_ticks = []
    sim.periodic(1.5, lambda: note("pure", len(pure_ticks)) or pure_ticks.append(1),
                 immediate=True, pure=True)
    sim.periodic(1.0, impure_tick)
    cancelled = sim.periodic(0.5, lambda: note("victim-tick"))
    sim.timeout(3.0)._add_callback(lambda _ev: cancelled.cancel())
    sim.process(signaller(), name="signaller")
    sim.process(interrupter(), name="interrupter")
    sim.process(loser_failer(), name="loser-failer")
    sim.run(until=30.0)
    return log


class TestKernelOrderPin:
    """The exact same-instant order of a random kernel program, pinned
    by digest: a kernel refactor that moves any sequence number, priority
    or callback position changes it."""

    DIGEST = "82cca7a0219a5297d318d5f7e068356b9218d8c6118928bef17d8eeebcbea9f2"

    def test_resume_log_digest_is_pinned(self):
        log = _kernel_program(1729)
        assert log == _kernel_program(1729)
        labels = {label.split(".")[0] for _, label, _ in log}
        assert {"quick", "early", "signal", "loser-failed", "tick", "tick-half",
                "pure", "victim-tick"} <= labels
        digest = hashlib.sha256(repr(log).encode()).hexdigest()
        assert digest == self.DIGEST, (len(log), digest)
