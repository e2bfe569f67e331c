"""Unit tests for MapReduce building blocks: JobConf, MOFs, tasks."""

import numpy as np
import pytest

from repro.cluster.node import MB
from repro.mapreduce.config import OUTPUT_REPLICATION, JobConf
from repro.mapreduce.mof import MapOutput, MOFRegistry
from repro.mapreduce.tasks import Task, TaskState, TaskType
from repro.sim.core import SimulationError

from tests.conftest import make_runtime, tiny_workload


class TestJobConf:
    def test_defaults_match_table1(self):
        conf = JobConf()
        assert conf.map_memory_mb == 1536
        assert conf.reduce_memory_mb == 4096
        assert conf.io_sort_factor == 100
        assert OUTPUT_REPLICATION == 2

    def test_shuffle_buffer_derivations(self):
        conf = JobConf()
        assert conf.shuffle_buffer_bytes == pytest.approx(4096 * MB * 0.70)
        assert conf.shuffle_merge_trigger_bytes < conf.shuffle_buffer_bytes
        assert conf.shuffle_single_segment_max < conf.shuffle_buffer_bytes

    def test_validation(self):
        with pytest.raises(SimulationError):
            JobConf(io_sort_factor=1)
        with pytest.raises(SimulationError):
            JobConf(num_fetchers=0)
        with pytest.raises(SimulationError):
            JobConf(shuffle_buffer_fraction=0.0)
        with pytest.raises(SimulationError):
            JobConf(max_attempts=0)
        with pytest.raises(SimulationError):
            JobConf(fetch_retries_per_host=0)


class TestMOFRegistry:
    def _mof(self, map_id, node, sizes=(10.0, 20.0)):
        return MapOutput(map_id, f"map-{map_id}.0", node, np.array(sizes))

    def test_register_and_lookup(self, runtime):
        reg = MOFRegistry()
        node = runtime.workers[0]
        mof = self._mof(0, node)
        reg.register(mof)
        assert reg.get(0) is mof
        assert 0 in reg
        assert len(reg) == 1
        assert mof.total_size == 30.0
        assert mof.partition(1) == 20.0

    def test_invalidate(self, runtime):
        reg = MOFRegistry()
        reg.register(self._mof(0, runtime.workers[0]))
        reg.invalidate(0)
        assert reg.get(0) is None
        reg.invalidate(0)  # idempotent

    def test_on_node(self, runtime):
        reg = MOFRegistry()
        a, b = runtime.workers[0], runtime.workers[1]
        reg.register(self._mof(0, a))
        reg.register(self._mof(1, a))
        reg.register(self._mof(2, b))
        assert {m.map_id for m in reg.on_node(a)} == {0, 1}

    def test_on_disk_tracks_local_file(self, runtime):
        node = runtime.workers[0]
        mof = self._mof(0, node)
        assert not mof.on_disk()
        node.write_file(mof.path, mof.total_size, kind="mof")
        assert mof.on_disk()
        runtime.cluster.crash_node(node)
        assert not mof.on_disk()


class TestTaskModel:
    def test_task_naming_and_state(self):
        t = Task(3, TaskType.MAP)
        assert t.name == "map-3"
        assert t.state is TaskState.PENDING
        assert not t.is_finished
        t.state = TaskState.SUCCEEDED
        assert t.is_finished


class TestMapExecution:
    def test_maps_prefer_local_splits(self):
        rt = make_runtime()
        res = rt.run()
        assert res.success
        local = remote = 0
        for task in rt.am.map_tasks:
            attempt = task.attempts[0]
            if attempt.node in task.block.replicas:
                local += 1
            else:
                remote += 1
        assert local > remote  # locality-aware scheduling dominates

    def test_map_locality_counters(self):
        rt = make_runtime()
        res = rt.run()
        counts = res.counters["map_locality"]
        assert sum(counts.values()) == rt.am.num_maps
        assert counts["data-local"] > counts["off-rack"]

    def test_mofs_registered_with_partition_sizes(self):
        rt = make_runtime(tiny_workload(reducers=4))
        rt.run()
        am = rt.am
        assert len(am.registry) == am.num_maps
        for mid in range(am.num_maps):
            mof = am.registry.get(mid)
            assert mof.partition_sizes.shape == (4,)
            assert mof.total_size == pytest.approx(am.map_tasks[mid].block.size)

    def test_mof_files_written_to_local_disk(self):
        rt = make_runtime()
        rt.run()
        total_mof = sum(n.local_bytes("mof") for n in rt.workers)
        assert total_mof == pytest.approx(rt.workload.shuffle_bytes)

    def test_map_spill_pass_charged_for_large_outputs(self):
        # With io_sort_mb below the block size, maps pay an extra merge
        # pass and the job takes measurably longer.
        fast = make_runtime(conf=JobConf(io_sort_mb=1024 * MB)).run()
        slow = make_runtime(conf=JobConf(io_sort_mb=16 * MB)).run()
        assert slow.elapsed > fast.elapsed
