"""Unit and property tests for the max-min fair flow scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.core import SimulationError
from repro.sim.flows import FlowCancelled, FlowScheduler, LinkResource
from repro.sim.flows_columnar import ColumnarFlowScheduler
from tests.test_flow_scheduler_incremental import _certify_every_fill

#: The production schedulers; the property scripts run under each, with
#: the max-min certificate checked after every flush.
PRODUCTION = (FlowScheduler, ColumnarFlowScheduler)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fs(sim):
    return FlowScheduler(sim)


def finish_times(sim, flows):
    """Run the sim to completion and return {flow: completion_time}."""
    times = {}
    for f in flows:
        f.done._add_callback(lambda e, f=f: times.__setitem__(f.name, sim.now))
    sim.run()
    return times


class TestSingleFlow:
    def test_lone_flow_gets_full_capacity(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        f = fs.transfer(1000.0, [disk], "f")
        t = finish_times(sim, [f])
        assert t["f"] == pytest.approx(10.0)

    def test_bottleneck_is_slowest_resource(self, sim, fs):
        fast = LinkResource("fast", 1000.0)
        slow = LinkResource("slow", 10.0)
        f = fs.transfer(100.0, [fast, slow], "f")
        t = finish_times(sim, [f])
        assert t["f"] == pytest.approx(10.0)

    def test_rate_cap_limits_lone_flow(self, sim, fs):
        disk = LinkResource("disk", 1000.0)
        f = fs.transfer(100.0, [disk], "f", rate_cap=10.0)
        t = finish_times(sim, [f])
        assert t["f"] == pytest.approx(10.0)

    def test_zero_size_completes_immediately(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        f = fs.transfer(0.0, [disk], "f")
        assert f.done.triggered
        assert f.progress == 1.0

    def test_negative_size_rejected(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        with pytest.raises(SimulationError):
            fs.transfer(-1.0, [disk])

    def test_flow_needs_resources_or_cap(self, sim, fs):
        with pytest.raises(SimulationError):
            fs.transfer(10.0, [])


class TestSharing:
    def test_equal_sharing_two_flows(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        f1 = fs.transfer(500.0, [disk], "f1")
        f2 = fs.transfer(500.0, [disk], "f2")
        t = finish_times(sim, [f1, f2])
        assert t["f1"] == pytest.approx(10.0)
        assert t["f2"] == pytest.approx(10.0)

    def test_departure_releases_bandwidth(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        f1 = fs.transfer(100.0, [disk], "f1")  # shares 50 until f2 done
        f2 = fs.transfer(100.0, [disk], "f2")
        t = finish_times(sim, [f1, f2])
        # Both at 50 B/s until t=2 when both finish simultaneously.
        assert t["f1"] == pytest.approx(2.0)
        assert t["f2"] == pytest.approx(2.0)

    def test_late_arrival_slows_existing_flow(self, sim):
        sim = Simulator()
        fs = FlowScheduler(sim)
        disk = LinkResource("disk", 100.0)
        times = {}

        def starter(sim):
            f1 = fs.transfer(150.0, [disk], "f1")
            f1.done._add_callback(lambda e: times.__setitem__("f1", sim.now))
            yield sim.timeout(1.0)  # f1 has moved 100 bytes
            f2 = fs.transfer(100.0, [disk], "f2")
            f2.done._add_callback(lambda e: times.__setitem__("f2", sim.now))

        sim.process(starter(sim))
        sim.run()
        # After t=1: f1 has 50 left, f2 has 100; both at 50 B/s.
        # f1 finishes at t=2; f2 then gets 100 B/s, 50 bytes left -> t=2.5.
        assert times["f1"] == pytest.approx(2.0)
        assert times["f2"] == pytest.approx(2.5)

    def test_maxmin_redistributes_capped_flow_share(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        nic = LinkResource("nic", 30.0)
        f1 = fs.transfer(30.0, [disk, nic], "f1")  # nic-bound at 30
        f2 = fs.transfer(70.0, [disk], "f2")  # gets disk residual 70
        assert f1.rate == pytest.approx(30.0)
        assert f2.rate == pytest.approx(70.0)
        t = finish_times(sim, [f1, f2])
        assert t["f1"] == pytest.approx(1.0)
        assert t["f2"] == pytest.approx(1.0)

    def test_progress_tracking(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        f = fs.transfer(1000.0, [disk], "f")
        sim.run(until=5.0)
        fs._advance()
        assert f.transferred == pytest.approx(500.0)
        assert f.progress == pytest.approx(0.5)


class TestCapacityChange:
    def test_slower_capacity_mid_flight(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        f = fs.transfer(200.0, [disk], "f")

        def throttle(sim):
            yield sim.timeout(1.0)  # 100 bytes moved
            disk.set_capacity(50.0)

        sim.process(throttle(sim))
        t = finish_times(sim, [f])
        assert t["f"] == pytest.approx(3.0)  # 1s at 100 + 2s at 50

    def test_invalid_capacity_rejected(self):
        with pytest.raises(SimulationError):
            LinkResource("bad", 0.0)
        r = LinkResource("ok", 1.0)
        with pytest.raises(SimulationError):
            r.set_capacity(-5.0)


class TestCancellation:
    def test_cancel_fails_done_event(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        f = fs.transfer(1000.0, [disk], "f")
        caught = []

        def waiter(sim):
            try:
                yield f.done
            except FlowCancelled as exc:
                caught.append((sim.now, exc.flow.name))

        def canceller(sim):
            yield sim.timeout(2.0)
            fs.cancel(f, "node died")

        sim.process(waiter(sim))
        sim.process(canceller(sim))
        sim.run()
        assert caught == [(2.0, "f")]

    def test_cancel_releases_bandwidth(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        f1 = fs.transfer(1000.0, [disk], "f1")
        f2 = fs.transfer(150.0, [disk], "f2")
        f1.done.defuse()

        def canceller(sim):
            yield sim.timeout(1.0)  # f2 at 50 B/s has 100 left
            fs.cancel(f1)

        times = {}
        f2.done._add_callback(lambda e: times.__setitem__("f2", sim.now))
        sim.process(canceller(sim))
        sim.run()
        assert times["f2"] == pytest.approx(2.0)  # 100 bytes at full 100 B/s

    def test_cancel_flows_using_resource(self, sim, fs):
        d1 = LinkResource("d1", 100.0)
        d2 = LinkResource("d2", 100.0)
        f1 = fs.transfer(1000.0, [d1], "f1")
        f2 = fs.transfer(1000.0, [d2], "f2")
        f1.done.defuse()
        victims = fs.cancel_flows_using(d1, "crash")
        assert [v.name for v in victims] == ["f1"]
        assert not f1._active and f2._active

    def test_double_cancel_is_noop(self, sim, fs):
        disk = LinkResource("disk", 100.0)
        f = fs.transfer(10.0, [disk], "f")
        f.done.defuse()
        fs.cancel(f)
        fs.cancel(f)  # no error


class TestMaxMinProperties:
    """Property-based checks of the progressive-filling allocation, run
    under both production schedulers with the max-min certificate of
    ``_certify_every_fill`` checked after every flush."""

    @given(
        caps=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=5),
        routes=st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_feasible_and_maxmin(self, caps, routes):
        for sched_cls in PRODUCTION:
            with pytest.MonkeyPatch.context() as mp:
                checked = _certify_every_fill(mp)
                self._feasible_and_maxmin(sched_cls, caps, routes)
            assert checked

    @staticmethod
    def _feasible_and_maxmin(sched_cls, caps, routes):
        sim = Simulator()
        fs = sched_cls(sim)
        resources = [LinkResource(f"r{i}", c) for i, c in enumerate(caps)]
        flows = []
        for j, route in enumerate(routes):
            res = [resources[i % len(resources)] for i in route]
            # De-duplicate: a flow crossing the same device twice is modelled
            # once (fluid approximation).
            uniq = list(dict.fromkeys(res))
            f = fs.transfer(1e9, uniq, f"f{j}")
            f.done.defuse()
            flows.append(f)

        # Feasibility: per-resource load never exceeds capacity.
        for r in resources:
            load = sum(f.rate for f in flows if r in f.resources)
            assert load <= r.capacity * (1 + 1e-9)

        # Every flow has positive rate (no starvation).
        for f in flows:
            assert f.rate > 0

        # Max-min characterisation: each flow crosses at least one
        # saturated resource on which it has a maximal rate.
        for f in flows:
            ok = False
            for r in f.resources:
                users = [g for g in flows if r in g.resources]
                load = sum(g.rate for g in users)
                saturated = load >= r.capacity * (1 - 1e-6)
                is_max = all(f.rate >= g.rate * (1 - 1e-6) for g in users)
                if saturated and is_max:
                    ok = True
                    break
            assert ok, f"flow {f.name} is not bottlenecked anywhere"

    @given(
        sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8),
        cap=st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_conservation_single_resource(self, sizes, cap):
        """All bytes are delivered, and total time equals work/capacity
        when flows share one resource from t=0 (work conservation)."""
        for sched_cls in PRODUCTION:
            with pytest.MonkeyPatch.context() as mp:
                checked = _certify_every_fill(mp)
                sim = Simulator()
                fs = sched_cls(sim)
                disk = LinkResource("disk", cap)
                flows = [fs.transfer(s, [disk], f"f{i}") for i, s in enumerate(sizes)]
                last = {}
                for f in flows:
                    f.done._add_callback(lambda e, f=f: last.__setitem__(f.name, sim.now))
                sim.run()
            assert len(last) == len(flows) and checked
            expected_total = sum(sizes) / cap
            assert max(last.values()) == pytest.approx(expected_total, rel=1e-6)
            for f in flows:
                assert f.remaining == 0.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_completion_order_matches_size_order(self, data):
        """Equal-share flows over one resource finish in size order."""
        sizes = data.draw(
            st.lists(
                st.floats(min_value=1.0, max_value=1e5),
                min_size=2,
                max_size=6,
                unique=True,
            )
        )
        # Epsilon-close sizes legitimately complete in the same event
        # batch; require a real gap for a meaningful ordering check.
        gaps = sorted(sizes)
        if any(b - a < 1e-5 * b for a, b in zip(gaps, gaps[1:])):
            return
        for sched_cls in PRODUCTION:
            with pytest.MonkeyPatch.context() as mp:
                checked = _certify_every_fill(mp)
                sim = Simulator()
                fs = sched_cls(sim)
                disk = LinkResource("disk", 100.0)
                flows = [fs.transfer(s, [disk], f"f{i}") for i, s in enumerate(sizes)]
                order = []
                for f in flows:
                    f.done._add_callback(lambda e, f=f: order.append(f.size))
                sim.run()
            assert order == sorted(sizes) and checked
