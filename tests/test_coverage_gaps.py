"""Tests for remaining public-API surfaces not covered elsewhere."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.cluster.node import MB
from repro.hdfs import Hdfs, HdfsConfig
from repro.sim import Simulator
from repro.sim.core import SimulationError

from tests.conftest import make_runtime, tiny_workload


class TestHdfsBlockAPI:
    @pytest.fixture
    def env(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=6, num_racks=2,
                                           node=NodeSpec(disk_bandwidth=100 * MB,
                                                         nic_bandwidth=100 * MB),
                                           seed=3))
        return sim, cluster, Hdfs(sim, cluster, HdfsConfig(block_size=64 * MB))

    def test_delete_missing_is_noop(self, env):
        _, _, hdfs = env
        hdfs.delete("ghost")  # no exception


class TestRuntimeValidation:
    def test_single_node_cluster_rejected(self):
        from repro.mapreduce.job import MapReduceRuntime

        with pytest.raises(SimulationError):
            MapReduceRuntime(
                tiny_workload(),
                cluster_spec=ClusterSpec(num_nodes=1, num_racks=1),
            )

    def test_job_result_repr(self):
        res = make_runtime().run()
        assert "ok" in repr(res)
        assert res.job_name in repr(res)


class TestReducePhaseAccounting:
    def test_sampled_series_reach_one(self):
        rt = make_runtime(tiny_workload(reducers=2))
        rt.run()
        series = rt.trace.series_values("reduce_progress")
        assert series[0][1] == 0.0
        assert max(v for _, v in series) <= 1.0
        # Map progress also sampled and completes.
        mseries = rt.trace.series_values("map_progress")
        assert max(v for _, v in mseries) == pytest.approx(1.0)

    def test_failed_reduce_attempts_probe(self):
        from repro.faults import kill_reduce_at_progress

        rt = make_runtime(tiny_workload(reducers=1, reduce_cpu=0.1))
        kill_reduce_at_progress(0.7).install(rt)
        rt.run()
        vals = [v for _, v in rt.trace.series_values("failed_reduce_attempts")]
        assert max(vals) == 1.0


class TestSpeculationLoserAccounting:
    def test_discarded_attempts_not_counted_as_failures(self):
        """A speculative loser is KILLED, never FAILED — double-commit
        or double-failure would corrupt job bookkeeping."""
        from repro.faults import SlowNodeFault
        from repro.mapreduce.speculation import SpeculationConfig

        rt = make_runtime(
            tiny_workload(input_mb=1024, reducers=3, reduce_cpu=0.05),
            speculation=SpeculationConfig(interval=2.0, min_runtime=4.0,
                                          slowness_threshold=1.15),
        )
        SlowNodeFault(node_index=0, at_time=2.0, disk_factor=0.05).install(rt)
        res = rt.run()
        assert res.success
        assert res.counters["committed_reduces"] == 3
        for task in rt.am.reduce_tasks:
            committed = [a for a in task.attempts if a.state.value == "succeeded"]
            assert len(committed) == 1
