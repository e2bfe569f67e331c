"""Unit tests for the simulated HDFS."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.cluster.node import MB
from repro.hdfs import Hdfs, HdfsConfig, HdfsError, ReplicationLevel
from repro.mapreduce.config import JobConf
from repro.mapreduce.tasks import AttemptState
from repro.sim import Simulator

from tests.conftest import make_runtime, tiny_workload


@pytest.fixture
def env():
    sim = Simulator()
    spec = ClusterSpec(
        num_nodes=8,
        num_racks=2,
        node=NodeSpec(disk_bandwidth=100 * MB, nic_bandwidth=100 * MB),
        core_bandwidth=400 * MB,
        seed=7,
    )
    cluster = Cluster(sim, spec)
    hdfs = Hdfs(sim, cluster, HdfsConfig(block_size=64 * MB, replication=2))
    return sim, cluster, hdfs


class TestIngest:
    def test_block_count_and_sizes(self, env):
        _, _, hdfs = env
        f = hdfs.ingest("input", 200 * MB)
        assert len(f.blocks) == 4  # 64+64+64+8
        assert sum(b.size for b in f.blocks) == 200 * MB
        assert f.blocks[-1].size == 8 * MB

    def test_replication_factor(self, env):
        _, _, hdfs = env
        f = hdfs.ingest("input", 128 * MB, replication=3)
        assert all(len(b.replicas) == 3 for b in f.blocks)

    def test_replicas_are_distinct_nodes(self, env):
        _, _, hdfs = env
        f = hdfs.ingest("input", 640 * MB)
        for b in f.blocks:
            assert len({n.node_id for n in b.replicas}) == len(b.replicas)

    def test_cluster_level_second_replica_off_rack(self, env):
        _, _, hdfs = env
        f = hdfs.ingest("input", 640 * MB)
        for b in f.blocks:
            assert b.replicas[0].rack is not b.replicas[1].rack

    def test_primaries_spread_over_nodes(self, env):
        _, _, hdfs = env
        f = hdfs.ingest("input", 8 * 64 * MB)
        primaries = {b.replicas[0].node_id for b in f.blocks}
        assert len(primaries) == 8  # round-robin over the 8 nodes

    def test_duplicate_path_rejected(self, env):
        _, _, hdfs = env
        hdfs.ingest("x", MB)
        with pytest.raises(HdfsError):
            hdfs.ingest("x", MB)

    def test_replica_files_on_datanodes(self, env):
        _, _, hdfs = env
        f = hdfs.ingest("input", 64 * MB)
        b = f.blocks[0]
        for n in b.replicas:
            assert n.local_bytes("hdfs") >= b.size


class TestWrite:
    def test_write_creates_available_file(self, env):
        sim, cluster, hdfs = env
        writer = cluster.nodes[0]
        p = hdfs.write(writer, "out", 64 * MB)
        sim.run(until=p)
        assert hdfs.exists("out")
        assert hdfs.file("out").available

    def test_node_level_write_has_no_network_cost(self, env):
        sim, cluster, hdfs = env
        writer = cluster.nodes[0]
        p = hdfs.write(writer, "out", 100 * MB, level=ReplicationLevel.NODE)
        sim.run(until=p)
        t_node = sim.now
        assert t_node == pytest.approx(1.0)  # 100 MB at 100 MB/s disk
        assert len(hdfs.file("out").blocks[0].replicas) == 1

    def test_rack_level_stays_in_rack(self, env):
        sim, cluster, hdfs = env
        writer = cluster.nodes[0]
        p = hdfs.write(writer, "out", 64 * MB, replication=3, level=ReplicationLevel.RACK)
        sim.run(until=p)
        for b in hdfs.file("out").blocks:
            assert all(n.rack is writer.rack for n in b.replicas)

    def test_cluster_level_crosses_racks_and_costs_more(self):
        def run(level):
            sim = Simulator()
            spec = ClusterSpec(
                num_nodes=8, num_racks=2,
                node=NodeSpec(disk_bandwidth=100 * MB, nic_bandwidth=100 * MB),
                core_bandwidth=50 * MB,  # constrained core: cross-rack hurts
                seed=7,
            )
            cluster = Cluster(sim, spec)
            hdfs = Hdfs(sim, cluster, HdfsConfig(block_size=64 * MB))
            p = hdfs.write(cluster.nodes[0], "out", 128 * MB, replication=2, level=level)
            sim.run(until=p)
            return sim.now

        # On an idle cluster rack-local pipelining hides behind the local
        # disk write (the paper observes small rack-level overhead for
        # small datasets); the constrained core makes cluster-level slow.
        assert run(ReplicationLevel.CLUSTER) > run(ReplicationLevel.RACK)
        assert run(ReplicationLevel.RACK) >= run(ReplicationLevel.NODE)

    def test_overwrite_flag(self, env):
        sim, cluster, hdfs = env
        sim.run(until=hdfs.write(cluster.nodes[0], "out", MB))
        with pytest.raises(HdfsError):
            sim.run(until=hdfs.write(cluster.nodes[0], "out", MB))
        sim.run(until=hdfs.write(cluster.nodes[0], "out", 2 * MB, overwrite=True))
        assert hdfs.file("out").size == 2 * MB

    def test_write_survives_replica_death(self, env):
        sim, cluster, hdfs = env
        writer = cluster.nodes[0]
        p = hdfs.write(writer, "out", 256 * MB, replication=2)

        def killer(sim):
            yield sim.timeout(0.5)
            # Kill a node that is probably in some pipeline; the write
            # must still complete via pipeline rebuild.
            for n in cluster.nodes[1:]:
                if n.alive and n is not writer:
                    cluster.crash_node(n)
                    return

        sim.process(killer(sim))
        sim.run(until=p)
        assert hdfs.file("out").available


class TestRead:
    """Split reads: a map attempt streams its block from the nearest live
    replica (``Hdfs._ordered_replicas``) and fails over to the next one
    when the source dies mid-read."""

    def test_local_read_prefers_local_replica(self):
        rt = _one_map_per_node()
        assert rt.run().success
        local = [a for a in _map_attempts(rt) if a.node in a.task.block.replicas]
        assert local
        for a in local:
            assert a.locality == "data-local"
            assert a.node.nic_in not in a._read_flow.resources  # disk only

    def test_remote_read_moves_over_network(self):
        rt = _one_map_per_node()
        assert rt.run().success
        remote = [a for a in _map_attempts(rt) if a.node not in a.task.block.replicas]
        assert remote
        for a in remote:
            same_rack = any(n.rack is a.node.rack for n in a.task.block.replicas)
            assert a.locality == ("rack-local" if same_rack else "off-rack")
            assert a.node.nic_in in a._read_flow.resources

    def test_read_fails_over_to_surviving_replica(self):
        rt = _one_map_per_node()
        victim = _crash_remote_source_mid_read(rt)
        assert rt.run().success
        attempt, src = victim
        survivor = next(n for n in attempt.task.block.replicas if n is not src)
        assert attempt.state is AttemptState.SUCCEEDED
        assert attempt.task.attempts == [attempt]  # no rerun needed
        assert attempt.locality == ("rack-local" if survivor.rack is attempt.node.rack
                                    else "off-rack")
        assert not rt.trace.count("attempt_failed", reason="input-block-lost")

    def test_read_lost_block_raises(self):
        rt = make_runtime(tiny_workload(input_mb=256, reducers=1), replication=1)
        task = rt.am.map_tasks[0]
        rt.cluster.crash_node(task.block.replicas[0])
        assert not rt.run().success
        failed = rt.trace.of_kind("attempt_failed")
        assert [e["reason"] for e in failed] == ["input-block-lost"] * rt.am.conf.max_attempts
        assert {e["task"] for e in failed} == {task.name}

    def test_read_lost_mid_read_fails_the_attempt(self):
        rt = _one_map_per_node(replication=1)
        victim = _crash_remote_source_mid_read(rt)
        rt.run()
        attempt, _ = victim
        assert attempt.state is AttemptState.FAILED
        assert rt.trace.count("attempt_failed", attempt=attempt.attempt_id,
                              reason="input-block-lost") == 1

    def test_missing_file_raises(self, env):
        _, _, hdfs = env
        with pytest.raises(HdfsError):
            hdfs.file("ghost")


def _one_map_per_node(replication: int = 2):
    """A 12-block job whose map containers fill a whole node, so some
    maps run away from their split's replicas and read it remotely."""
    return make_runtime(tiny_workload(input_mb=768, reducers=1),
                        conf=JobConf(map_memory_mb=16 * 1024),
                        replication=replication)


def _map_attempts(rt):
    return [a for t in rt.am.map_tasks for a in t.attempts]


def _crash_remote_source_mid_read(rt):
    """Crash the source of the first remote split read once a fifth of
    it has streamed; the returned list receives ``attempt, source``."""
    victim = []

    def saboteur(sim):
        while True:
            yield sim.timeout(0.1)
            for a in _map_attempts(rt):
                fl = a._read_flow
                block = a.task.block
                if (fl is not None and fl.active and fl.progress > 0.2
                        and a.node not in block.replicas):
                    src = rt.hdfs._ordered_replicas(a.node, block)[0]
                    victim.extend((a, src))
                    rt.cluster.crash_node(src)
                    return

    rt.sim.process(saboteur(rt.sim))
    return victim


class TestFailureBookkeeping:
    def test_crash_removes_replicas(self, env):
        _, cluster, hdfs = env
        f = hdfs.ingest("input", 64 * MB, replication=2)
        victim = f.blocks[0].replicas[0]
        cluster.crash_node(victim)
        assert victim not in f.blocks[0].replicas
        assert f.available  # one replica left

    def test_network_stop_keeps_replicas(self, env):
        _, cluster, hdfs = env
        f = hdfs.ingest("input", 64 * MB, replication=2)
        victim = f.blocks[0].replicas[0]
        cluster.stop_network(victim)
        assert victim in f.blocks[0].replicas  # data intact, just unreachable

    def test_delete_frees_datanode_space(self, env):
        _, cluster, hdfs = env
        hdfs.ingest("input", 64 * MB)
        assert sum(n.local_bytes("hdfs") for n in cluster.nodes) > 0
        hdfs.delete("input")
        assert sum(n.local_bytes("hdfs") for n in cluster.nodes) == 0
        assert not hdfs.exists("input")
