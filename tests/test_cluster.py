"""Unit tests for the cluster model."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.cluster.node import GB, MB
from repro.sim import Simulator
from repro.sim.core import SimulationError
from repro.sim.flows import FlowCancelled


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cluster(sim):
    spec = ClusterSpec(num_nodes=6, num_racks=2, node=NodeSpec(disk_bandwidth=100.0, nic_bandwidth=50.0), core_bandwidth=200.0)
    return Cluster(sim, spec)


class TestTopology:
    def test_default_spec_matches_paper_testbed(self, sim):
        c = Cluster(sim)
        assert len(c.nodes) == 21
        assert len(c.racks) == 2
        assert c.nodes[0].spec.memory_mb == 24 * 1024

    def test_round_robin_rack_assignment(self, cluster):
        assert [n.rack.rack_id for n in cluster.nodes] == [0, 1, 0, 1, 0, 1]
        assert all(len(r.nodes) == 3 for r in cluster.racks)

    def test_same_rack(self, cluster):
        n = cluster.nodes
        assert cluster.same_rack(n[0], n[2])
        assert not cluster.same_rack(n[0], n[1])

    def test_spec_validation(self):
        with pytest.raises(SimulationError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(SimulationError):
            ClusterSpec(num_nodes=2, num_racks=3)
        with pytest.raises(SimulationError):
            NodeSpec(cores=0)


class TestDataMovement:
    def test_disk_read_rate(self, sim, cluster):
        f = cluster.disk_read(cluster.nodes[0], 1000.0)
        sim.run(until=f.done)
        assert sim.now == pytest.approx(10.0)

    def test_intra_rack_transfer_bottlenecked_by_nic(self, sim, cluster):
        # nodes 0 and 2 share rack 0; nic 50 < disk 100.
        f = cluster.net_transfer(cluster.nodes[0], cluster.nodes[2], 500.0)
        sim.run(until=f.done)
        assert sim.now == pytest.approx(10.0)

    def test_cross_rack_transfer_uses_core_link(self, sim, cluster):
        f = cluster.net_transfer(cluster.nodes[0], cluster.nodes[1], 500.0)
        assert cluster.core_link in f.resources
        sim.run(until=f.done)
        assert sim.now == pytest.approx(10.0)  # still nic-bound (core=200)

    def test_core_link_contention_across_racks(self, sim, cluster):
        # 5 concurrent cross-rack transfers share the 200 B/s core link.
        n = cluster.nodes
        pairs = [(n[0], n[1]), (n[2], n[3]), (n[4], n[5]), (n[0], n[3]), (n[2], n[5])]
        flows = [
            cluster.net_transfer(s, d, 400.0, name=f"x{i}", read_src_disk=False)
            for i, (s, d) in enumerate(pairs)
        ]
        done = sim.all_of([f.done for f in flows])
        sim.run(until=done)
        # Ideal fair share of the core is 40 B/s each... but nodes 0 and 2
        # each source two flows over a 50 B/s NIC (25 each); the core then
        # redistributes to the other three flows (up to nic limit 50).
        assert sim.now >= 400.0 / 50.0

    def test_local_transfer_skips_network(self, sim, cluster):
        n0 = cluster.nodes[0]
        f = cluster.net_transfer(n0, n0, 500.0, write_dst_disk=True)
        assert n0.nic_in not in f.resources and n0.nic_out not in f.resources
        sim.run(until=f.done)
        assert sim.now == pytest.approx(5.0)  # disk-bound at 100 B/s

    def test_pure_memory_local_copy(self, sim, cluster):
        n0 = cluster.nodes[0]
        f = cluster.net_transfer(n0, n0, 4.0 * GB, read_src_disk=False)
        sim.run(until=f.done)
        assert sim.now == pytest.approx(1.0)

    def test_compute_is_plain_delay(self, sim, cluster):
        ev = cluster.compute(cluster.nodes[0], 2.5)
        sim.run(until=ev)
        assert sim.now == pytest.approx(2.5)

    def test_compute_negative_rejected(self, cluster):
        with pytest.raises(SimulationError):
            cluster.compute(cluster.nodes[0], -1)


class TestLocalFiles:
    def test_write_read_delete(self, cluster):
        n = cluster.nodes[0]
        n.write_file("mof/1", 10 * MB, kind="mof")
        assert n.has_file("mof/1")
        assert [f.size for f in n.files("mof")] == [10 * MB]
        assert n.local_bytes("mof") == 10 * MB
        n.delete_file("mof/1")
        assert not n.has_file("mof/1")

    def test_kind_filter(self, cluster):
        n = cluster.nodes[0]
        n.write_file("a", 5, kind="mof")
        n.write_file("b", 7, kind="spill")
        assert n.local_bytes("mof") == 5
        assert n.local_bytes() == 12


class TestFailures:
    def test_crash_kills_in_flight_transfer(self, sim, cluster):
        src, dst = cluster.nodes[0], cluster.nodes[2]
        f = cluster.net_transfer(src, dst, 1e6)
        caught = []

        def waiter(sim):
            try:
                yield f.done
            except FlowCancelled as exc:
                caught.append((sim.now, exc.reason))

        def killer(sim):
            yield sim.timeout(5.0)
            cluster.crash_node(src)

        sim.process(waiter(sim))
        sim.process(killer(sim))
        sim.run()
        assert caught and caught[0][0] == 5.0

    def test_crash_makes_files_inaccessible(self, cluster):
        n = cluster.nodes[0]
        n.write_file("mof/1", 100, kind="mof")
        cluster.crash_node(n)
        assert not n.has_file("mof/1")

    def test_stop_network_keeps_files_but_unreachable(self, sim, cluster):
        n = cluster.nodes[0]
        n.write_file("mof/1", 100, kind="mof")
        cluster.stop_network(n)
        assert n.alive and not n.reachable
        assert n.has_file("mof/1")
        with pytest.raises(SimulationError):
            cluster.net_transfer(n, cluster.nodes[2], 10)
        # Local disk I/O still allowed.
        cluster.disk_read(n, 10)

    def test_failure_listeners_invoked_once(self, cluster):
        seen = []
        cluster.failure_listeners.append(lambda n: seen.append(n.name))
        cluster.crash_node(cluster.nodes[3])
        cluster.crash_node(cluster.nodes[3])
        assert seen == ["node-3"]

    def test_transfer_to_dead_node_rejected(self, cluster):
        cluster.crash_node(cluster.nodes[2])
        with pytest.raises(SimulationError):
            cluster.net_transfer(cluster.nodes[0], cluster.nodes[2], 10)
        with pytest.raises(SimulationError):
            cluster.disk_read(cluster.nodes[2], 10)

    def test_alive_and_reachable_listings(self, cluster):
        cluster.crash_node(cluster.nodes[0])
        cluster.stop_network(cluster.nodes[1])
        assert len([n for n in cluster.nodes if n.alive]) == 5
        assert len(cluster.reachable_nodes()) == 4


class TestFlowSchedulerChoice:
    def test_cluster_size_picks_the_scheduler(self, sim, monkeypatch):
        from repro.cluster.cluster import COLUMNAR_FLOW_MIN_NODES, flow_scheduler_class
        from repro.sim.flows import FlowScheduler
        from repro.sim.flows_columnar import ColumnarFlowScheduler

        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        # The crossover measured in DESIGN.md §13: columnar won every
        # repeat from 192 nodes up, and lost or split below.
        assert COLUMNAR_FLOW_MIN_NODES == 192
        assert flow_scheduler_class(128) is FlowScheduler
        below = COLUMNAR_FLOW_MIN_NODES - 1
        assert flow_scheduler_class(below) is FlowScheduler
        assert flow_scheduler_class(COLUMNAR_FLOW_MIN_NODES) is ColumnarFlowScheduler
        assert type(Cluster(sim).flows) is FlowScheduler  # the 21-node testbed
        big = Cluster(sim, ClusterSpec(num_nodes=COLUMNAR_FLOW_MIN_NODES))
        assert type(big.flows) is ColumnarFlowScheduler

    def test_forced_scheduler_overrides_cluster_size(self, monkeypatch):
        from repro.cluster.cluster import COLUMNAR_FLOW_MIN_NODES, flow_scheduler_class
        from repro.sim.flows import FlowScheduler
        from repro.sim.flows_columnar import ColumnarFlowScheduler
        from repro.sim.flows_reference import ReferenceFlowScheduler

        monkeypatch.setenv("REPRO_SCHEDULER", "columnar")
        assert flow_scheduler_class(2) is ColumnarFlowScheduler
        monkeypatch.setenv("REPRO_SCHEDULER", "incremental")
        assert flow_scheduler_class(COLUMNAR_FLOW_MIN_NODES) is FlowScheduler
        monkeypatch.setenv("REPRO_SCHEDULER", "reference")
        assert flow_scheduler_class(COLUMNAR_FLOW_MIN_NODES) is ReferenceFlowScheduler
        monkeypatch.setenv("REPRO_SCHEDULER", "bogus")
        with pytest.raises(SimulationError, match="REPRO_SCHEDULER"):
            flow_scheduler_class(2)

    def test_eager_alias_rejected(self, monkeypatch):
        from repro.cluster.cluster import flow_scheduler_class

        monkeypatch.setenv("REPRO_SCHEDULER", "eager")
        with pytest.raises(SimulationError, match="REPRO_SCHEDULER"):
            flow_scheduler_class(2)

    @pytest.mark.parametrize("value", ["Columnar", " columnar", "INCREMENTAL"])
    def test_scheduler_value_is_strict(self, monkeypatch, value):
        """Only the exact ``IMPL_KNOBS`` values select a scheduler:
        nothing is case-folded or stripped."""
        from repro.cluster.cluster import flow_scheduler_class

        monkeypatch.setenv("REPRO_SCHEDULER", value)
        with pytest.raises(SimulationError, match="REPRO_SCHEDULER"):
            flow_scheduler_class(2)
