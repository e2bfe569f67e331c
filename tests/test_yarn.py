"""Unit tests for the YARN layer (RM, NM, containers, liveness)."""

import random

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.sim import Simulator
from repro.sim.core import SimulationError
from repro.yarn import ContainerKilled, ResourceManager, YarnConfig


def make_env(num_nodes=4, memory_mb=8192, **yarn_kw):
    sim = Simulator()
    racks = min(2, num_nodes)
    cluster = Cluster(sim, ClusterSpec(num_nodes=num_nodes, num_racks=racks, node=NodeSpec(memory_mb=memory_mb)))
    cfg = YarnConfig(nm_memory_fraction=1.0, **yarn_kw)
    rm = ResourceManager(sim, cluster, cfg)
    return sim, cluster, rm


class TestAllocation:
    def test_grant_after_allocation_latency(self):
        sim, cluster, rm = make_env(allocation_latency=1.0)
        grant = rm.request_container(2048)
        c = sim.run(until=grant)
        assert sim.now == pytest.approx(1.0)
        assert c.memory_mb == 2048
        assert c.alive

    def test_memory_rounding_to_allocation_bounds(self):
        sim, cluster, rm = make_env()
        c = sim.run(until=rm.request_container(100))
        assert c.memory_mb == 1024  # min allocation
        c2 = sim.run(until=rm.request_container(99999))
        assert c2.memory_mb == 6144  # max allocation

    def test_queueing_when_cluster_full(self):
        sim, cluster, rm = make_env(num_nodes=1, memory_mb=4096)
        c1 = sim.run(until=rm.request_container(4096))
        grant2 = rm.request_container(4096)
        sim.run(until=sim.now + 20)
        assert not grant2.triggered
        rm.release_container(c1)
        c2 = sim.run(until=grant2)
        assert c2.alive

    def test_priority_order(self):
        sim, cluster, rm = make_env(num_nodes=1, memory_mb=4096)
        c1 = sim.run(until=rm.request_container(4096))
        low = rm.request_container(4096, priority=10)
        high = rm.request_container(4096, priority=1)
        rm.release_container(c1)
        first = sim.run(until=sim.any_of([low, high]))
        assert high.triggered and not low.triggered
        assert first is high.value

    def test_preferred_node_honoured(self):
        sim, cluster, rm = make_env()
        target = cluster.nodes[2]
        c = sim.run(until=rm.request_container(1024, preferred_nodes=[target]))
        assert c.node is target

    def test_excluded_node_avoided(self):
        sim, cluster, rm = make_env(num_nodes=2)
        bad = cluster.nodes[0]
        for _ in range(4):
            c = sim.run(until=rm.request_container(1024, exclude_nodes=[bad]))
            assert c.node is not bad

    def test_load_balancing_spreads_containers(self):
        sim, cluster, rm = make_env(num_nodes=4)
        nodes = set()
        for _ in range(4):
            c = sim.run(until=rm.request_container(1024))
            nodes.add(c.node.node_id)
        assert len(nodes) == 4

    def test_available_mb_accounting(self):
        sim, cluster, rm = make_env(num_nodes=2, memory_mb=4096)
        assert rm.available_mb() == 8192
        sim.run(until=rm.request_container(2048))
        assert rm.available_mb() == 8192 - 2048


class FullScanRM(ResourceManager):
    """The matching loop without the ``room`` bound: every pending
    request runs a full node pick. The oracle for the short-circuit."""

    def _match(self) -> None:
        granted = []
        for req in self._pending:
            nm = self._pick_node(req)
            if nm is None:
                continue
            container = nm.allocate(req.memory_mb)
            granted.append(req)
            self._deliver(req, container)
        for req in granted:
            self._pending.remove(req)


def _operations(seed, num_nodes, count=60):
    """A seeded stream of RM operations that depends on nothing but the
    seed, so two RMs can replay it side by side."""
    ops = random.Random(seed)
    crash = ops.randrange(num_nodes)
    partitioned = ops.choice([i for i in range(num_nodes) if i != crash])
    stream = []
    for step in range(count):
        wait = ops.uniform(0.0, 1.5)
        if step == 10:
            stream.append((wait, "crash", crash))
        elif step == 45:
            stream.append((wait, "restart", crash))
        elif step == 20:
            stream.append((wait, "partition", partitioned))
        elif step == 26:
            stream.append((wait, "heal", partitioned))
        elif ops.random() < 0.35:
            stream.append((wait, "release", ops.random()))
        else:
            preferred = ops.sample(range(num_nodes), ops.randint(1, 2)) if ops.random() < 0.3 else []
            excluded = ops.sample(range(num_nodes), ops.randint(1, 2)) if ops.random() < 0.3 else []
            stream.append((wait, "request", (ops.randrange(1024, 6145, 512), preferred, excluded)))
    return stream


def _replay(rm_cls, seed, num_nodes=5):
    """Run the seed's operation stream against one RM; return the grants
    as ``(request index, node_id, grant time)``, the final RNG state and
    the number of requests still pending."""
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=num_nodes, num_racks=2, seed=seed,
                                       node=NodeSpec(memory_mb=8192)))
    rm = rm_cls(sim, cluster, YarnConfig(nm_memory_fraction=1.0, nm_liveness_timeout=5.0))
    cluster.rejoin_listeners.append(rm.register_node)
    grants, held = [], []

    def waiter(index, grant):
        container = yield grant
        grants.append((index, container.node.node_id, sim.now))
        held.append(container)

    for index, (wait, op, arg) in enumerate(_operations(seed, num_nodes)):
        sim.run(until=sim.now + wait)
        if op == "request":
            memory_mb, preferred, excluded = arg
            grant = rm.request_container(memory_mb, preferred_nodes=[cluster.nodes[i] for i in preferred],
                                         exclude_nodes=[cluster.nodes[i] for i in excluded])
            sim.process(waiter(index, grant))
        elif op == "release" and held:
            rm.release_container(held.pop(int(arg * len(held))))
        elif op == "crash":
            cluster.crash_node(cluster.nodes[arg])
        elif op == "restart":
            cluster.restart_node(cluster.nodes[arg])
        elif op == "partition":
            cluster.stop_network(cluster.nodes[arg])
        elif op == "heal":
            cluster.restore_network(cluster.nodes[arg])
    sim.run(until=sim.now + 10.0)
    return grants, cluster.rng.bit_generator.state, len(rm._pending)


class TestMatching:
    def test_saturated_cluster_does_not_scan_per_request(self, monkeypatch):
        """One match over a queue nothing fits costs one scan of the
        nodes, not one per pending request, and draws no random number."""
        sim, cluster, rm = make_env(num_nodes=4, memory_mb=4096)
        for node in cluster.nodes:
            sim.run(until=rm.request_container(4096, preferred_nodes=[node]))
        for _ in range(50):
            rm.request_container(2048)
        calls = []
        usable = ResourceManager._usable
        monkeypatch.setattr(ResourceManager, "_usable",
                            lambda self, nm, req: calls.append(nm) or usable(self, nm, req))
        rng_state = cluster.rng.bit_generator.state
        rm._match()
        assert len(calls) <= 2 * len(rm.node_managers)
        assert cluster.rng.bit_generator.state == rng_state

    def test_short_circuit_matches_full_scan(self):
        """The ``room`` bound changes no grant and no RNG draw under
        preferences, exclusions, releases, a node crash past liveness
        expiry with a restart, and a partition that heals."""
        starved = 0
        for seed in range(50):
            grants, rng_state, pending = _replay(ResourceManager, seed)
            assert (grants, rng_state, pending) == _replay(FullScanRM, seed), f"seed {seed}"
            starved += pending > 0
        assert starved > 0  # the stream does saturate the cluster


    def test_pending_queue_stays_sorted_across_requests_and_requeues(self):
        """Requests at mixed priorities back up behind a saturated
        cluster while grants handed out to a rejoined node are requeued
        when it crashes again mid-hand-out; every match walks a queue
        in ``(priority, seq)`` order."""
        checks = []

        class CheckedRM(ResourceManager):
            def _match(self):
                checks.append(self._pending == sorted(self._pending))
                super()._match()

        ops = random.Random(7)
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=4, num_racks=2,
                                           node=NodeSpec(memory_mb=4096)))
        rm = CheckedRM(sim, cluster, YarnConfig(nm_memory_fraction=1.0, allocation_latency=2.0,
                                                nm_liveness_timeout=5.0))
        cluster.rejoin_listeners.append(rm.register_node)
        requests = 0

        def ask(count):
            nonlocal requests
            for _ in range(count):
                rm.request_container(ops.choice([1024, 2048]), priority=ops.choice([0, 1, 2, 5]))
                requests += 1
                sim.run(until=sim.now + ops.uniform(0.0, 0.5))

        ask(30)  # far more than fits: the queue backs up
        for node in cluster.nodes[:3]:
            cluster.crash_node(node)
            sim.run(until=sim.now + 10.0)  # past the liveness timeout
            cluster.restart_node(node)     # its memory is granted anew...
            sim.run(until=sim.now + 1.0)
            cluster.crash_node(node)       # ...and lost again mid-hand-out
            ask(5)
        sim.run(until=sim.now + 30.0)
        requeues = next(rm._seq) - requests
        assert requeues > 3 and len(rm._pending) > 10
        assert all(checks)

class TestNodeManager:
    def test_over_allocation_rejected(self):
        sim, cluster, rm = make_env(num_nodes=1, memory_mb=2048)
        nm = rm.node_managers[0]
        nm.allocate(2048)
        with pytest.raises(SimulationError):
            nm.allocate(1)

    def test_double_release_is_noop(self):
        sim, cluster, rm = make_env()
        nm = rm.node_managers[0]
        c = nm.allocate(1024)
        nm.release(c)
        nm.release(c)
        assert nm.used_mb == 0

    def test_memory_fraction_reserves_headroom(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=1, num_racks=1, node=NodeSpec(memory_mb=10000)))
        rm = ResourceManager(sim, cluster, YarnConfig(nm_memory_fraction=0.9))
        assert rm.node_managers[0].capacity_mb == 9000


class TestLiveness:
    def test_node_loss_detected_after_timeout(self):
        sim, cluster, rm = make_env(nm_liveness_timeout=70.0)
        lost = []
        rm.node_lost_listeners.append(lambda n: lost.append((n.name, sim.now)))

        def killer(sim):
            yield sim.timeout(10.0)
            cluster.crash_node(cluster.nodes[1])

        sim.process(killer(sim))
        sim.run(until=200.0)
        assert len(lost) == 1
        name, t = lost[0]
        assert name == "node-1"
        # Last heartbeat at ~10s, expiry 70s later, detected within a
        # heartbeat-scan period.
        assert 79.0 <= t <= 82.0

    def test_network_stop_also_detected(self):
        sim, cluster, rm = make_env(nm_liveness_timeout=70.0)
        lost = []
        rm.node_lost_listeners.append(lambda n: lost.append(n.name))

        def killer(sim):
            yield sim.timeout(5.0)
            cluster.stop_network(cluster.nodes[2])

        sim.process(killer(sim))
        sim.run(until=100.0)
        assert lost == ["node-2"]

    def test_containers_killed_on_node_loss(self):
        sim, cluster, rm = make_env(nm_liveness_timeout=10.0)
        c = sim.run(until=rm.request_container(1024, preferred_nodes=[cluster.nodes[1]]))
        caught = []

        def task(sim):
            try:
                yield c.killed
            except ContainerKilled as exc:
                caught.append(exc.reason)

        sim.process(task(sim))
        cluster.crash_node(cluster.nodes[1])
        sim.run(until=50.0)
        assert caught == ["node-1 lost"]
        assert not c.alive

    def test_lost_node_not_scheduled(self):
        sim, cluster, rm = make_env(num_nodes=2, nm_liveness_timeout=5.0)
        cluster.crash_node(cluster.nodes[0])
        sim.run(until=10.0)
        assert rm.is_lost(cluster.nodes[0])
        for _ in range(3):
            c = sim.run(until=rm.request_container(1024))
            assert c.node is cluster.nodes[1]

    def test_grant_in_flight_when_node_dies_is_retried(self):
        sim, cluster, rm = make_env(num_nodes=2, allocation_latency=5.0, nm_liveness_timeout=5.0)
        target = cluster.nodes[0]
        grant = rm.request_container(1024, preferred_nodes=[target])

        def killer(sim):
            yield sim.timeout(1.0)
            cluster.crash_node(target)

        sim.process(killer(sim))
        c = sim.run(until=grant)
        assert c.node is cluster.nodes[1]

    def test_healthy_nodes_listing(self):
        sim, cluster, rm = make_env(num_nodes=3, nm_liveness_timeout=5.0)
        cluster.crash_node(cluster.nodes[1])
        sim.run(until=10.0)
        healthy = {n.node_id for n in rm.healthy_nodes()}
        assert healthy == {0, 2}

    def test_heartbeats_precede_events_queued_by_the_liveness_tick(self):
        # A timeout armed inside a liveness tick, one heartbeat interval
        # long, runs after the next instant's heartbeats and before its
        # liveness check. node-1 is stamped at 6.0 and then partitioned,
        # so it expires at 11.0; stamping at the liveness check instead
        # would miss the 6.0 heartbeat and expire it at 10.0.
        sim, cluster, rm = make_env(num_nodes=3, nm_liveness_timeout=5.0)
        lost = []

        def on_lost(node):
            lost.append((node.name, sim.now))
            if node is cluster.nodes[0]:
                sim.timeout(1.0).callbacks.append(
                    lambda _: cluster.stop_network(cluster.nodes[1]))

        rm.node_lost_listeners.append(on_lost)

        def killer(sim):
            yield sim.timeout(0.5)
            cluster.crash_node(cluster.nodes[0])

        sim.process(killer(sim))
        sim.run(until=20.0)
        assert lost == [("node-0", 5.0), ("node-1", 11.0)]

    def test_heartbeat_cost_does_not_grow_with_cluster_size(self):
        def claimed(num_nodes):
            sim = Simulator()
            cluster = Cluster(sim, ClusterSpec(num_nodes=num_nodes))
            start = sim._seq
            ResourceManager(sim, cluster)
            sim.run(until=100.0)
            return sim._seq - start

        assert claimed(4) == claimed(64)

        # A rejoined NM keeps its own phase: registered at 7.25, it is
        # last stamped at 9.25 and expires at the 15.0 liveness check
        # (an in-phase stamp at 9.0 would expire it at 14.0).
        sim, cluster, rm = make_env(nm_liveness_timeout=5.0)
        node = cluster.nodes[1]
        lost = []
        rm.node_lost_listeners.append(lambda n: lost.append((n.name, sim.now)))

        def flap(sim):
            cluster.stop_network(node)
            yield sim.timeout(7.25)
            cluster.restore_network(node)
            rm.register_node(node)
            yield sim.timeout(2.5)
            cluster.stop_network(node)

        sim.process(flap(sim))
        sim.run(until=30.0)
        assert lost == [("node-1", 5.0), ("node-1", 15.0)]


class TestConfigValidation:
    def test_bad_bounds(self):
        with pytest.raises(SimulationError):
            YarnConfig(min_allocation_mb=0)
        with pytest.raises(SimulationError):
            YarnConfig(min_allocation_mb=2048, max_allocation_mb=1024)
        with pytest.raises(SimulationError):
            YarnConfig(nm_heartbeat_interval=0)
