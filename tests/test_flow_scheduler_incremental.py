"""Equivalence and regression tests for the incremental/coalesced flow
scheduler against the eager full-recompute reference.

The contract under test is exact (``==``, not approx): the incremental
scheduler must allocate bit-identical rates and completion times to the
reference on any workload, because experiment trace digests are pinned
to byte equality across the scheduler swap.
"""

import math
import os
import random

import numpy as np
import pytest

from repro.sim import Simulator, flows_columnar
from repro.sim.core import SimulationError, Timeout
from repro.sim.flows import FlowScheduler, LinkResource
from repro.sim.flows_columnar import VECTOR_MIN_FLOWS, ColumnarFlowScheduler
from repro.sim.flows_reference import ReferenceFlowScheduler

SCHEDULERS = (ReferenceFlowScheduler, FlowScheduler)


def _random_script(seed: int):
    """A deterministic random workload script: a list of
    (at_time, kind, payload) actions over a small resource topology."""
    rng = random.Random(seed)
    n_res = rng.randint(2, 6)
    actions = []
    t = 0.0
    for i in range(rng.randint(5, 25)):
        t += rng.choice([0.0, 0.0, 0.1, 0.5, 1.0]) * rng.random()
        kind = rng.random()
        if kind < 0.75:
            routes = sorted(rng.sample(range(n_res), rng.randint(1, min(3, n_res))))
            size = rng.choice([10.0, 100.0, 250.0, 1000.0]) * (1 + rng.random())
            actions.append((t, "transfer", (f"f{i}", size, routes)))
        elif kind < 0.9:
            actions.append((t, "cancel", i))
        else:
            actions.append((t, "slow", (rng.randrange(n_res),
                                        rng.choice([25.0, 75.0, 150.0]))))
    return n_res, actions


def _run_script(sched_cls, seed: int):
    """Execute one random script; returns (completion times, rate trace)."""
    n_res, actions = _random_script(seed)
    sim = Simulator()
    sched = sched_cls(sim)
    resources = [LinkResource(f"r{j}", 100.0) for j in range(n_res)]
    times: dict[str, float] = {}
    rates: list[tuple] = []
    flows: list = []

    def driver():
        prev = 0.0
        for at, kind, payload in actions:
            if at > prev:
                yield sim.timeout(at - prev)
                prev = at
            if kind == "transfer":
                name, size, routes = payload
                fl = sched.transfer(size, [resources[j] for j in routes], name)
                fl.done._add_callback(
                    lambda e, f=fl: times.__setitem__(f.name, sim.now))
                flows.append(fl)
            elif kind == "cancel":
                live = [f for f in flows if f.active]
                if live:
                    sched.cancel(live[payload % len(live)], "scripted")
            else:
                j, cap = payload
                resources[j].set_capacity(cap)
            # Observe every live rate right after the action: under the
            # incremental scheduler this lazily flushes the coalesced
            # recompute, so stale mid-instant rates would be caught here.
            rates.append((sim.now, tuple((f.name, f.rate)
                                         for f in flows if f.active)))

    sim.process(driver())
    sim.run()
    return times, rates


# The incremental cases keep their bare seed ids; the columnar ones are
# prefixed.
RANDOM_CASES = ([pytest.param(FlowScheduler, seed, id=str(seed)) for seed in range(25)]
                + [pytest.param(ColumnarFlowScheduler, seed, id=f"columnar-{seed}")
                   for seed in range(25)])


@pytest.mark.parametrize("sched_cls, seed", RANDOM_CASES)
def test_random_workloads_match_reference_exactly(sched_cls, seed):
    ref_times, ref_rates = _run_script(ReferenceFlowScheduler, seed)
    times, rates = _run_script(sched_cls, seed)
    # Exact equality: same flows complete at the same float instants,
    # and every observed rate is the same float.
    assert times == ref_times
    assert rates == ref_rates


def _tie_after_reuse(sched_cls, singles=2):
    """Resources ``x`` and ``y`` tie exactly (100/(singles+1) each) and
    share one flow, so whichever the fill freezes first hands its flows
    that share and the other's ``(100 - share)/singles`` — an ulp apart.
    ``early`` registers ``y`` before ``x``, then finishes; the later
    flows meet ``x`` first. The tie must follow that encounter order,
    not registration order."""
    sim = Simulator()
    sched = sched_cls(sim)
    x = LinkResource("x", 100.0)
    y = LinkResource("y", 100.0)
    times: dict[str, float] = {}
    rates: dict[str, float] = {}

    def driver():
        early = sched.transfer(10.0, [y, x], "early")
        yield early.done
        flows = [sched.transfer(1000.0, [x, y], "both")]
        for i in range(1, singles + 1):
            flows += [sched.transfer(1000.0, [y], f"y{i}"),
                      sched.transfer(1000.0, [x], f"x{i}")]
        if isinstance(sched, ColumnarFlowScheduler):
            assert x._rid > y._rid  # registration order is y, x
        for f in flows:
            f.done._add_callback(lambda e, f=f: times.__setitem__(f.name, sim.now))
        rates.update((f.name, f.rate) for f in flows)

    sim.process(driver())
    sim.run()
    return times, rates


@pytest.mark.parametrize("sched_cls", [FlowScheduler, ColumnarFlowScheduler],
                         ids=["incremental", "columnar"])
def test_tie_follows_encounter_order_not_registration_order(sched_cls):
    ref_times, ref_rates = _tie_after_reuse(ReferenceFlowScheduler)
    # The case is sensitive: the tie decides which side gets the ulp.
    assert ref_rates["x1"] == 100.0 / 3 != ref_rates["y1"]
    assert _tie_after_reuse(sched_cls) == (ref_times, ref_rates)


def _observe_tied_bottlenecks(monkeypatch):
    """Count the numpy rounds after a fill's first whose least share
    several resources hold; returns a one-element list holding the
    count."""
    ties = [0]
    pick = flows_columnar._bottleneck

    def observed_bottleneck(rcap, cnt, share):
        b = pick(rcap, cnt, share)
        ties[0] += int((share == share[b]).sum() > 1)
        return b

    monkeypatch.setattr(flows_columnar, "_bottleneck", observed_bottleneck)
    return ties


def _observe_tails(monkeypatch):
    """Record every call of the columnar fill's scalar tail; returns the
    list of records, one dict per call:

    - ``rows``: the unfrozen flows it finishes;
    - ``ids``: the resources those flows touch;
    - ``lazy``: some touched resource's count exceeds its unfrozen
      users, so the tail replays a hand-over round's edge updates;
    - ``best``: the hand-over round's share;
    - ``tied``: the busy rids whose share is ``best``;
    - ``rounds``: the freeze rounds the tail ran.
    """
    tail = flows_columnar._fill_tail
    calls = []

    def observed_tail(rows, rcap, cnt, best, key):
        ids = sorted({j for row in rows for j in row} - {-1})
        users = dict.fromkeys(ids, 0)
        for row in rows:
            for j in row:
                if j >= 0:
                    users[j] += 1
        share = np.full(len(cnt), math.inf)
        np.divide(rcap, cnt, out=share, where=cnt > 0)
        call = {"rows": len(rows), "ids": ids,
                "lazy": any(cnt[j] > users[j] for j in ids), "best": best,
                "tied": (share == best).nonzero()[0].tolist()}
        rates, call["rounds"] = tail(rows, rcap, cnt, best, key)
        calls.append(call)
        return rates, call["rounds"]

    monkeypatch.setattr(flows_columnar, "_fill_tail", observed_tail)
    return calls


def test_wide_tie_follows_encounter_order_in_a_vectorized_round(monkeypatch):
    """The tie above with 18 single-link flows a side: 37 flows, so the
    columnar fill breaks it in its first round, which runs in rid space
    on the resource rows. There the lower rid is ``y``'s, but the
    encounter key picks ``x``: the round freezes ``x``'s 19 users and
    hands ``y``'s 18 single-link flows to the scalar tail."""
    tails = _observe_tails(monkeypatch)
    ref_times, ref_rates = _tie_after_reuse(ReferenceFlowScheduler, singles=18)
    assert ref_rates["x1"] == 100.0 / 19 != ref_rates["y1"]
    for sched_cls in (FlowScheduler, ColumnarFlowScheduler):
        assert _tie_after_reuse(sched_cls, singles=18) == (ref_times, ref_rates)
    # The fill of the 37 flows: y (the tail's one resource) ties x at
    # 100/19, holds the lower rid, and still lost the shared flow.
    handed = [t for t in tails if t["rows"] == 18]
    assert handed
    for t in handed:
        assert t["lazy"] and t["best"] == 100.0 / 19
        assert len(t["tied"]) == 2 and t["ids"] == t["tied"][:1]


def _fan_in(sched_cls):
    """A shuffle-shaped fan-in: 24 senders on two racks each send to 12
    receivers, the cross-rack half also over a shared core link. NIC
    shares tie (50 B/s out over 12 flows, 100 B/s in over 24) and a
    tied pair shares a flow, so the freeze order decides an ulp. A
    first wave of 288 flows, a lost node's flows cancelled, a slowed NIC
    and core, a second wave over the first, and scattered cancels.
    Returns (completion times, observed rates)."""
    rng = random.Random(35)
    sim = Simulator()
    sched = sched_cls(sim)
    core = LinkResource("core", 430.0)
    nodes = [(LinkResource(f"disk{i}", 400.0), LinkResource(f"out{i}", 50.0),
              LinkResource(f"in{i}", 100.0)) for i in range(24)]
    times: dict[str, float | None] = {}
    rates: list[tuple] = []
    flows: list = []

    def wave(tag):
        with sched.batch():
            for src in range(24):
                for dst in range(12):
                    disk, out, _ = nodes[src]
                    route = [disk, out] + [core] * (src % 2 != dst % 2) + [nodes[dst][2]]
                    f = sched.transfer(rng.choice([150.0, 300.0, 300.0, 420.0]),
                                       route, f"{tag}{src}-{dst}")
                    f.done._add_callback(lambda e, f=f: times.__setitem__(
                        f.name, sim.now if e.ok else None))
                    flows.append(f)

    def observe():
        rates.append((sim.now, tuple((f.name, f.rate) for f in flows if f.active)))

    def driver():
        wave("a")
        observe()
        yield sim.timeout(20.0)
        sched.cancel_flows_using(nodes[5], "node lost")
        observe()
        yield sim.timeout(10.0)
        nodes[3][1].set_capacity(25.0)
        core.set_capacity(300.0)
        observe()
        yield sim.timeout(5.0)
        wave("b")
        observe()
        yield sim.timeout(15.0)
        for f in rng.sample([f for f in flows if f.active], 40):
            sched.cancel(f, "scripted")
        observe()

    sim.process(driver())
    sim.run()
    return times, rates


def test_columnar_matches_reference_across_the_vector_scalar_split(monkeypatch):
    """A columnar fill of more than ``VECTOR_MIN_FLOWS`` flows picks its
    first bottleneck in rid space. If that round leaves at most
    ``VECTOR_MIN_FLOWS`` flows unfrozen it hands them to the scalar tail;
    otherwise numpy rounds on local ids run until one does, and the tail
    reads their state back on rids. A smaller fill is all tail. On a wide fan-in with tied NIC
    shares each of these branches runs, and every rate and completion instant equals
    the reference's and the incremental scheduler's. The fan-in also
    has numpy rounds whose least share several resources hold, and
    tails that replay a hand-over round's edge updates."""
    tails = _observe_tails(monkeypatch)
    fills = []  # (flows, numpy rounds, tail calls made by the fill)
    fill = ColumnarFlowScheduler._fill

    def observed_fill(self):
        before = self.stats["filling_rounds"]
        called = len(tails)
        horizon = fill(self)
        rounds = self.stats["filling_rounds"] - before
        made = tails[called:]
        fills.append((len(self._active), rounds - sum(t["rounds"] for t in made), made))
        return horizon

    monkeypatch.setattr(ColumnarFlowScheduler, "_fill", observed_fill)
    ties = _observe_tied_bottlenecks(monkeypatch)
    ref_times, ref_rates = _fan_in(ReferenceFlowScheduler)
    assert max(len(rates) for _, rates in ref_rates) > 500  # wave b over a
    for sched_cls in (FlowScheduler, ColumnarFlowScheduler):
        times, rates = _fan_in(sched_cls)
        # Compared piece by piece: pytest's diff of the whole run is slow.
        assert times == ref_times
        for seen, want in zip(rates, ref_rates, strict=True):
            assert seen == want
    # A hand-over in the first round, to a tail that replays it.
    assert any(n > VECTOR_MIN_FLOWS and numpy == 1 and made and made[0]["lazy"]
               for n, numpy, made in fills)
    # Several numpy rounds, then a tail that replays the last one.
    assert any(numpy > 1 and made and made[0]["lazy"] for n, numpy, made in fills)
    # A small fill: no numpy round, all tail.
    assert any(n <= VECTOR_MIN_FLOWS and numpy == 0 and made for n, numpy, made in fills)
    assert ties[0]


def _certify_every_fill(monkeypatch):
    """Check a max-min certificate after every flush of either
    production scheduler; returns the flow count of each checked flush.

    With relative tolerance 1e-9: no busy resource carries more than its
    capacity, and every flow crosses a saturated resource on which no
    flow has a higher rate (its bottleneck), so no rate could rise
    without lowering one that is no higher."""
    tol = 1e-9
    checked = []
    flush = FlowScheduler._flush

    def certified_flush(self):
        flush(self)
        flows = list(self._active.values())
        rates = [f.rate for f in flows]
        load: dict = {}
        top: dict = {}
        for f, rate in zip(flows, rates):
            for r in f.resources:
                load[r] = load.get(r, 0.0) + rate
                top[r] = max(top.get(r, 0.0), rate)
        for r, used in load.items():
            assert used <= r.capacity * (1 + tol), (r, used)
        for f, rate in zip(flows, rates):
            assert any(load[r] >= r.capacity * (1 - tol) and top[r] <= rate * (1 + tol)
                       for r in f.resources), (f, rate)
        checked.append(len(flows))

    monkeypatch.setattr(FlowScheduler, "_flush", certified_flush)
    return checked


@pytest.mark.parametrize("sched_cls", [FlowScheduler, ColumnarFlowScheduler],
                         ids=["incremental", "columnar"])
def test_every_fill_passes_the_maxmin_certificate(sched_cls, monkeypatch):
    """The certificate holds after every fill of the wide fan-in and of
    the random scripts."""
    checked = _certify_every_fill(monkeypatch)
    _fan_in(sched_cls)
    assert max(checked) > VECTOR_MIN_FLOWS
    for seed in range(25):
        _run_script(sched_cls, seed)
    assert len(checked) > 500


@pytest.mark.parametrize("scheduler", ["incremental", "columnar"])
@pytest.mark.parametrize("name", ["shuffle-heavy-yarn", "crash-reducer-sfm", "crash-mapnode-alg",
                                  "partition-short-alm", "rack-recover-alm"])
def test_golden_scenario_fills_pass_the_maxmin_certificate(name, scheduler, monkeypatch):
    """The certificate holds after every fill of whole golden scenarios,
    and checking it moves no digest."""
    from repro.verify import load_golden, run_verify_spec, scenario_spec

    checked = _certify_every_fill(monkeypatch)
    monkeypatch.setenv("REPRO_SCHEDULER", scheduler)
    assert run_verify_spec(scenario_spec(name))["digest"] == load_golden()[name]
    assert len(checked) > 30


@pytest.mark.parametrize("sched_cls", [FlowScheduler, ColumnarFlowScheduler,
                                       ReferenceFlowScheduler],
                         ids=["incremental", "columnar", "reference"])
@pytest.mark.parametrize("capacity", [math.inf, math.nan, 0.0, -1.0])
def test_capacity_must_be_finite_and_positive(sched_cls, capacity):
    """An infinite capacity gives its flows no finite share (the
    schedulers used to disagree on such a flow); NaN, zero and negative
    capacities are rejected too, on a link and as a ``rate_cap``."""
    sim = Simulator()
    sched = sched_cls(sim)
    with pytest.raises(SimulationError, match="finite"):
        LinkResource("x", capacity)
    link = LinkResource("link", 100.0)
    flow = sched.transfer(1000.0, [link], "f")
    with pytest.raises(SimulationError, match="finite"):
        link.set_capacity(capacity)
    with pytest.raises(SimulationError, match="finite"):
        sched.transfer(10.0, [link], "capped", rate_cap=capacity)
    assert link.capacity == 100.0 and sched.active_count == 1
    sim.run()
    assert flow.done.ok and sim.now == 10.0


@pytest.mark.parametrize("seed", range(10))
def test_incremental_allocation_is_feasible_and_maxmin(seed):
    """On the incremental path: no resource over capacity, and max-min
    holds (no flow can be raised without lowering a slower one)."""
    n_res, actions = _random_script(seed)
    sim = Simulator()
    sched = FlowScheduler(sim)
    resources = [LinkResource(f"r{j}", 100.0) for j in range(n_res)]

    def check():
        usage = {r: 0.0 for r in resources}
        for f in sched.active_flows:
            for r in f.resources:
                usage[r] += f.rate
        for r, used in usage.items():
            assert used <= r.capacity * (1 + 1e-9)
        # Max-min: every active flow is limited by some saturated
        # resource it crosses (otherwise its rate could be raised).
        for f in sched.active_flows:
            assert any(usage[r] >= r.capacity * (1 - 1e-9) for r in f.resources), f

    def driver():
        prev = 0.0
        for at, kind, payload in actions:
            if at > prev:
                yield sim.timeout(at - prev)
                prev = at
            if kind == "transfer":
                name, size, routes = payload
                sched.transfer(size, [resources[j] for j in routes], name)
            elif kind == "cancel":
                live = [f for f in sched.active_flows]
                if live:
                    sched.cancel(live[payload % len(live)], "scripted")
            else:
                j, cap = payload
                resources[j].set_capacity(cap)
            check()

    sim.process(driver())
    sim.run()


def test_same_instant_wave_coalesces_to_one_recompute():
    """A 50-flow wave admitted at one instant pays one filling pass,
    not 50 (the reference pays one per admission)."""
    sim = Simulator()
    sched = FlowScheduler(sim)
    link = LinkResource("link", 100.0)
    for i in range(50):
        sched.transfer(100.0, [link], f"f{i}")
    sim.run(until=0.0)
    sim.step()  # the zero-delay flush event
    assert sched.stats["recomputes"] == 1
    assert sched.stats["recomputed_flows"] == 50


def _follow_up_chain(sched_cls):
    """Six hops over a shared link; each hop's ``done`` callback admits
    the next one at its completion instant. Returns the completion
    times and, per completion, the recomputes counted so far."""
    sim = Simulator()
    sched = sched_cls(sim)
    a = LinkResource("a", 100.0)
    b = LinkResource("b", 70.0)
    background = sched.transfer(5000.0, [b], "background")
    times = {}
    seen = []

    def admit(i):
        flow = sched.transfer(300.0 + 37.0 * i, [a, b], f"hop{i}")

        def on_done(_event):
            times[flow.name] = sim.now
            seen.append(sched.stats["recomputes"])
            if i < 5:
                admit(i + 1)

        flow.done._add_callback(on_done)

    admit(0)
    background.done._add_callback(
        lambda _event: times.__setitem__("background", sim.now))
    sim.run()
    return times, seen


@pytest.mark.parametrize("sched_cls", [FlowScheduler, ColumnarFlowScheduler],
                         ids=["incremental", "columnar"])
def test_completion_admitting_follow_up_recomputes_once(sched_cls):
    """A completion whose ``done`` callback admits a follow-up flow at
    the same instant costs one recompute: the flush runs at the end of
    the instant, after the admission, not between the two."""
    times, seen = _follow_up_chain(sched_cls)
    # One recompute at t=0, then exactly one per hop instant.
    assert seen == list(range(1, 7))
    assert times == _follow_up_chain(ReferenceFlowScheduler)[0]
    assert len(set(times.values())) == 7


def test_node_death_three_contended_links_recomputes_once():
    """Regression: cancelling every flow crossing a dead node's three
    device directions (nic_in, nic_out, disk) is one batched cancel and
    exactly one rate recompute — the seed paid one full recompute per
    cancelled flow per swept resource."""
    sim = Simulator()
    sched = FlowScheduler(sim)
    nic_in = LinkResource("nic_in", 100.0)
    nic_out = LinkResource("nic_out", 100.0)
    disk = LinkResource("disk", 100.0)
    far = LinkResource("far", 100.0)
    for i in range(8):
        sched.transfer(500.0, [nic_in, disk], f"in{i}")
        sched.transfer(500.0, [nic_out], f"out{i}")
        sched.transfer(500.0, [disk], f"dsk{i}")
    survivor = sched.transfer(500.0, [far], "far")
    sim.run(until=1.0)
    before = sched.stats["recomputes"]
    victims = sched.cancel_flows_using([nic_in, nic_out, disk], "node died")
    assert len(victims) == 24
    # The cancel only marks dirty; the coalesced flush is the single
    # recompute, observable via any rate read.
    _ = survivor.rate
    assert sched.stats["recomputes"] == before + 1
    assert survivor.active


def test_cancel_flows_using_order_matches_reference():
    """Victim order (hence done-event failure order) of the batched
    sweep equals the reference's sequential per-resource sweeps."""

    def build(sched_cls):
        sim = Simulator()
        sched = sched_cls(sim)
        a = LinkResource("a", 100.0)
        b = LinkResource("b", 100.0)
        flows = [
            sched.transfer(100.0, [a], "fa"),
            sched.transfer(100.0, [a, b], "fab"),
            sched.transfer(100.0, [b], "fb"),
        ]
        order = []
        for f in flows:
            f.done._add_callback(lambda e, f=f: order.append(f.name))
            f.done.defuse()
        victims = sched.cancel_flows_using([a, b], "x")
        sim.run()
        return [f.name for f in victims], order

    assert build(FlowScheduler) == build(ReferenceFlowScheduler)


def test_completion_timer_does_not_leak_heap_entries():
    """Sequential same-horizon flows reuse the pending timer; the event
    heap never accumulates stale completion timers."""
    sim = Simulator()
    sched = FlowScheduler(sim)
    links = [LinkResource(f"l{i}", 100.0) for i in range(40)]

    def driver():
        # 40 disjoint flows with the same horizon, each flushed on its
        # own (reading a rate runs the deferred flush): each admission
        # shifts only its own component.
        for i, link in enumerate(links):
            _ = sched.transfer(1000.0, [link], f"f{i}").rate
            yield sim.timeout(0.0)

    sim.process(driver())
    sim.run()
    assert sched.stats["timer_reuses"] > 0
    assert sched.stats["timer_pushes"] < sched.stats["transfers"] + 5
    # All timers are gone once the last flow completes.
    assert sched._timer is None
    live = [e for _, _, _, e in sim._heap
            if isinstance(e, Timeout) and not e.cancelled]
    assert not live


def test_solo_flush_keeps_disjoint_rates():
    """A flush whose dirty busy resources are all solo re-shares only
    their users, one round each, and a disjoint component keeps the
    rate it already had."""
    sim = Simulator()
    sched = FlowScheduler(sim)
    a = LinkResource("a", 100.0)
    b = LinkResource("b", 100.0)
    fa = sched.transfer(1000.0, [a], "fa")
    fb = sched.transfer(1000.0, [b], "fb")
    assert fa.rate == 100.0 and fb.rate == 100.0
    base = dict(sched.stats)
    fa2 = sched.transfer(1000.0, [a], "fa2")
    _ = fa.rate  # flush
    # Only fa and fa2 were re-shared, in one round.
    assert sched.stats["recomputed_flows"] == base["recomputed_flows"] + 2
    assert sched.stats["filling_rounds"] == base["filling_rounds"] + 1
    assert sched.stats["solo_reshares"] == base["solo_reshares"] + 1
    assert fa.rate == fa2.rate == 50.0
    assert fb.rate == 100.0


def test_dirty_shared_resource_refills_the_whole_population():
    """A dirty resource that a multi-resource route crosses sends the
    flush to the fill, which re-shares every attached flow: the solo
    resource ``b`` in one round, the shared component in its rounds."""
    sim = Simulator()
    sched = FlowScheduler(sim)
    a = LinkResource("a", 100.0)
    b = LinkResource("b", 100.0)
    c = LinkResource("c", 100.0)
    fa = sched.transfer(1000.0, [a], "fa")
    fb = sched.transfer(1000.0, [b], "fb")
    assert fa.rate == 100.0
    base = dict(sched.stats)
    fac = sched.transfer(1000.0, [a, c], "fac")
    _ = fa.rate  # flush
    assert sched.stats["recomputed_flows"] == base["recomputed_flows"] + 3
    assert sched.stats["filling_rounds"] == base["filling_rounds"] + 2
    assert sched.stats["solo_reshares"] == base["solo_reshares"]
    assert fa.rate == fac.rate == 50.0
    assert fb.rate == 100.0


def _solo_tie(sched_cls):
    """``x`` and ``y`` tie at 100/3 and share a flow, as in
    :func:`_tie_after_reuse`; the solo resource ``s`` is met after both
    and ties them at 100/3 too. The reference scans ``s`` among the
    shared bottlenecks; the production fills settle it first."""
    sim = Simulator()
    sched = sched_cls(sim)
    x = LinkResource("x", 100.0)
    y = LinkResource("y", 100.0)
    s = LinkResource("s", 100.0)
    times: dict[str, float] = {}
    rates: dict[str, float] = {}

    def driver():
        flows = [sched.transfer(1000.0, [x, y], "both")]
        for i in (1, 2):
            flows += [sched.transfer(1000.0 + i, [y], f"y{i}"),
                      sched.transfer(1000.0 - i, [x], f"x{i}")]
        flows += [sched.transfer(900.0 + 50.0 * i, [s], f"s{i}") for i in range(3)]
        for f in flows:
            f.done._add_callback(lambda e, f=f: times.__setitem__(f.name, sim.now))
        rates.update((f.name, f.rate) for f in flows)
        yield sim.timeout(5.0)
        rates.update((f"{f.name}@5", f.rate) for f in flows if f.active)

    sim.process(driver())
    sim.run()
    return times, rates


@pytest.mark.parametrize("sched_cls", [FlowScheduler, ColumnarFlowScheduler],
                         ids=["incremental", "columnar"])
def test_solo_share_tying_an_earlier_shared_bottleneck_matches_reference(sched_cls):
    """Settling a solo resource before the freeze rounds leaves every
    rate and completion instant of a tied fill the reference's."""
    ref_times, ref_rates = _solo_tie(ReferenceFlowScheduler)
    assert ref_rates["s0"] == ref_rates["x1"] == 100.0 / 3 != ref_rates["y1"]
    assert _solo_tie(sched_cls) == (ref_times, ref_rates)


def test_churn_and_scripts_hit_solo_flushes_and_fills_with_solo_resources(monkeypatch):
    """The churn runs and the random scripts both reach the solo-only
    flush and fills that settle solo resources beside freeze rounds."""
    seen = {"solo_flushes": 0, "solo_fills": 0}
    reshare = FlowScheduler._reshare_solo
    fill = FlowScheduler._fill

    def counted_reshare(self, solo):
        seen["solo_flushes"] += 1
        return reshare(self, solo)

    def counted_fill(self):
        multi = [bool(r._multi) for r in self._order]
        seen["solo_fills"] += any(multi) and not all(multi)
        return fill(self)

    monkeypatch.setattr(FlowScheduler, "_reshare_solo", counted_reshare)
    monkeypatch.setattr(FlowScheduler, "_fill", counted_fill)
    for run in (lambda seed: _churn(FlowScheduler, seed),
                lambda seed: _run_script(FlowScheduler, seed)):
        seen.update(solo_flushes=0, solo_fills=0)
        for seed in range(6):
            run(seed)
        assert seen["solo_flushes"] > 0 and seen["solo_fills"] > 0, seen


def _churn(sched_cls, seed: int, check=None, filled=None):
    """A seeded random run of admissions (some rate-capped), cancels,
    node-style sweeps, capacity changes and completions. ``check(sched)``
    runs after every step and just before every fill; ``filled(sched,
    horizon)`` runs after every fill with the horizon it returned."""
    rng = random.Random(seed)
    sim = Simulator()
    sched = sched_cls(sim)
    links = [LinkResource(f"r{j}", 100.0) for j in range(rng.randint(4, 8))]
    fill = sched._fill

    def observed_fill():
        if check is not None:
            check(sched)
        horizon = fill()
        if filled is not None:
            filled(sched, horizon)
        return horizon

    sched._fill = observed_fill

    def driver():
        for i in range(120):
            yield sim.timeout(rng.choice([0.0, 0.0, 0.05, 0.3, 1.0]))
            kind = rng.random()
            live = list(sched.active_flows)
            if kind < 0.65:
                route = rng.sample(links, rng.randint(0, min(3, len(links))))
                cap = rng.choice([None, None, 40.0]) if route else 40.0
                sched.transfer(rng.choice([5.0, 400.0, 3000.0]), route, f"f{i}", rate_cap=cap)
            elif kind < 0.8 and live:
                sched.cancel(rng.choice(live), "scripted")
            elif kind < 0.85:
                sched.cancel_flows_using(rng.sample(links, 2), "scripted")
            else:
                rng.choice(links).set_capacity(rng.choice([25.0, 100.0, 150.0]))
            if check is not None:
                check(sched)

    sim.process(driver())
    sim.run()
    return sched


def _assert_order_is_first_encounter(sched):
    keys = {}
    for f in sched._active.values():
        for pos, r in enumerate(f.resources):
            keys.setdefault(r, (f.fid, pos))
    assert sched._order == list(keys)
    assert sched._keys == keys


@pytest.mark.parametrize("seed", range(12))
def test_kept_encounter_order_matches_first_encounter_recount(seed):
    """After every admission, cancel and completion, the busy resources'
    kept order is the first-encounter order over the active flows in
    admission order, recomputed from scratch."""
    sched = _churn(FlowScheduler, seed, check=_assert_order_is_first_encounter)
    assert sched.stats["completions"] > 5 and sched.stats["cancels"] > 5
    assert sched._order == [] and sched._keys == {}


def _assert_multi_counts_recount(seen):
    """A ``_churn`` check: every resource ever seen busy holds, in
    ``_multi``, the number of its attached users whose route has more
    than one resource, counted afresh from ``_active`` (0 once idle)."""
    def check(sched):
        counts = dict.fromkeys(seen, 0)
        for f in sched._active.values():
            for r in f.resources:
                counts[r] = counts.get(r, 0) + (len(f.resources) > 1)
        seen.update(counts)
        assert {r: r._multi for r in counts} == counts
    return check


@pytest.mark.parametrize("sched_cls", [FlowScheduler, ColumnarFlowScheduler],
                         ids=["incremental", "columnar"])
@pytest.mark.parametrize("seed", range(6))
def test_multi_route_counts_match_a_recount(sched_cls, seed):
    """After every admission, cancel, ``cancel_flows_using`` sweep and
    completion, each resource's multi-route user count equals a
    recount, so a solo resource is exactly one no such user crosses."""
    seen: set = set()
    sched = _churn(sched_cls, seed, check=_assert_multi_counts_recount(seen))
    assert sched.stats["cancels"] > 5 and not sched._active
    assert len(seen) > 8 and all(r._multi == 0 for r in seen)


def test_fill_counters_equal_under_incremental_and_columnar():
    """Both schedulers skip the same fills, settle the same solo-only
    flushes and re-share the same flows in the same freeze rounds."""
    counters = ("recomputes", "recomputed_flows", "filling_rounds", "completions",
                "solo_reshares")
    for seed in range(6):
        scalar = _churn(FlowScheduler, seed).stats
        columnar = _churn(ColumnarFlowScheduler, seed).stats
        assert [scalar[k] for k in counters] == [columnar[k] for k in counters], seed
        assert scalar["filling_rounds"] > scalar["recomputes"] > 20
        assert scalar["solo_reshares"] > 0


@pytest.mark.parametrize("sched_cls", [FlowScheduler, ColumnarFlowScheduler],
                         ids=["incremental", "columnar"])
def test_fill_returns_the_scanned_horizon(sched_cls):
    """The horizon a fill returns is the one a scan over the rates it
    set finds, bit for bit."""
    pairs = []
    for seed in range(6):
        _churn(sched_cls, seed,
               filled=lambda sched, horizon: pairs.append((horizon, sched._horizon())))
    assert len(pairs) > 100
    assert all(fill == scan for fill, scan in pairs)


def test_digest_identical_across_scheduler_swap():
    """End-to-end: a seeded faulted experiment produces a byte-identical
    trace digest under the reference and incremental schedulers."""
    from repro.experiments.common import run_benchmark_trial
    from repro.faults.inject import kill_node_at_progress
    from repro.workloads.workload import BENCHMARKS

    def one(scheduler: str) -> str:
        previous = os.environ.get("REPRO_SCHEDULER")
        os.environ["REPRO_SCHEDULER"] = scheduler
        try:
            res = run_benchmark_trial(
                2015, BENCHMARKS["terasort"](1.0), system="alm",
                fault_factory=lambda: kill_node_at_progress(0.5, target="reducer"))
            return res["digest"]
        finally:
            if previous is None:
                os.environ.pop("REPRO_SCHEDULER", None)
            else:
                os.environ["REPRO_SCHEDULER"] = previous

    assert one("reference") == one("incremental")


@pytest.mark.parametrize("sched_cls", [FlowScheduler, ColumnarFlowScheduler,
                                       ReferenceFlowScheduler],
                         ids=["incremental", "columnar", "reference"])
def test_flow_completing_below_clock_resolution_still_completes(sched_cls):
    """A 3.8e-6-byte flow on a 400 MB/s disk at t=278.972 s has a
    completion horizon (~9.5e-15 s) below the float resolution of
    ``now``: its completion instant rounds to ``now``. The timer fire
    must complete it instead of re-arming at the same instant forever."""
    sim = Simulator()
    sched = sched_cls(sim)
    disk = LinkResource("disk", 400.0 * 1024 * 1024)
    sim.run(until=278.972)
    flow = sched.transfer(3.8e-6, [disk], "tiny-log-write")
    assert sim.now + flow.remaining / disk.capacity == sim.now
    for _ in range(1000):  # a bounded run: a livelock fails, not hangs
        if flow.done.triggered or sim.peek() == float("inf"):
            break
        sim.step()
    assert flow.done.triggered and flow.done.ok
    assert sim.now == 278.972
    assert sched.active_count == 0


@pytest.mark.slow
def test_wordcount_alm_reducer_crash_runs_to_completion():
    """The whole-job reproducer of the livelock above: Wordcount 100 GB
    under ALM with the reducer's node failing at 50% progress used to
    stop simulated time at 278.972 s."""
    from repro.experiments.common import run_benchmark_job
    from repro.faults import kill_node_at_progress
    from repro.invariants import check_invariants
    from repro.workloads import wordcount

    rt, res = run_benchmark_job(
        wordcount(100.0), "alm", faults=[kill_node_at_progress(0.5, target="reducer")])
    assert res.success
    assert res.end_time > 278.972
    assert check_invariants(rt, res) == []
