"""Unit tests for the fault-injection layer."""

import pytest

from repro.faults import (
    EventTrigger,
    FaultInjector,
    MapWaveFault,
    NodeFault,
    PartitionFault,
    RackFault,
    SlowNodeFault,
    TaskFault,
    kill_maps_at_time,
    kill_node_at_progress,
    kill_reduce_at_progress,
)
from repro.mapreduce.tasks import TaskType
from repro.sim.core import SimulationError

from tests.conftest import make_runtime, tiny_workload


class TestTaskFault:
    def test_fires_once_at_progress(self):
        rt = make_runtime(tiny_workload(reducers=1, reduce_cpu=0.1))
        fault = kill_reduce_at_progress(0.8)
        fault.install(rt)
        res = rt.run()
        assert res.success
        assert fault.fired_at is not None
        assert res.counters["failed_reduce_attempts"] == 1  # only one kill

    def test_does_not_fire_after_task_finished(self):
        rt = make_runtime()
        fault = TaskFault(TaskType.MAP, 0, 0.99)
        fault.install(rt)
        rt.run()
        # Either fired exactly once or never (map too fast to catch);
        # in both cases the job succeeds and no spurious kill happens.
        assert rt.am.map_tasks[0].state.value == "succeeded"

    def test_progress_validation(self):
        rt = make_runtime()
        with pytest.raises(SimulationError):
            TaskFault(TaskType.REDUCE, 0, 1.5).install(rt)


class TestNodeFault:
    def test_time_trigger(self):
        rt = make_runtime(tiny_workload(reducers=1, reduce_cpu=0.1))
        fault = NodeFault(target=0, at_time=5.0)
        fault.install(rt)
        rt.run()
        assert fault.fired_at == pytest.approx(5.0)
        assert fault.victim_name == rt.workers[0].name
        assert not rt.workers[0].reachable
        assert rt.workers[0].alive  # network mode keeps the machine up

    def test_crash_mode_kills_machine(self):
        rt = make_runtime(tiny_workload(reducers=1, reduce_cpu=0.1))
        NodeFault(target=0, at_time=5.0, mode="crash").install(rt)
        rt.run()
        assert not rt.workers[0].alive

    def test_reducer_target_hits_reducer_host(self):
        rt = make_runtime(tiny_workload(reducers=1, reduce_cpu=0.2))
        fault = kill_node_at_progress(0.5, target="reducer")
        fault.install(rt)
        rt.run()
        assert fault.victim_name is not None
        first = rt.trace.first("attempt_start", type="reduce")
        assert first.data["node"] == fault.victim_name

    def test_validation(self):
        rt = make_runtime()
        with pytest.raises(SimulationError):
            NodeFault(target=0).install(rt)  # neither trigger given
        with pytest.raises(SimulationError):
            NodeFault(target=0, at_time=1.0, at_progress=0.5).install(rt)
        with pytest.raises(SimulationError):
            NodeFault(target=0, at_time=1.0, mode="meteor").install(rt)

    def test_no_fire_when_job_ends_first(self):
        rt = make_runtime()
        fault = kill_node_at_progress(0.999999, target="reducer")
        fault.install(rt)
        res = rt.run()
        assert res.success  # fault may or may not fire; job completes


class TestMapWaveFault:
    def test_kills_up_to_count_running_maps(self):
        rt = make_runtime(tiny_workload(input_mb=1024))
        fault = kill_maps_at_time(4, at_time=3.0)
        fault.install(rt)
        res = rt.run()
        assert res.success
        assert 1 <= fault.killed <= 4
        assert len(fault.killed_tasks) == fault.killed
        assert res.counters["failed_map_attempts"] == fault.killed


class TestFaultInjector:
    def test_bundles_install_together(self):
        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1))
        f1 = kill_reduce_at_progress(0.7, task_index=0)
        f2 = kill_reduce_at_progress(0.7, task_index=1)
        FaultInjector(f1, f2).install(rt)
        res = rt.run()
        assert res.success
        assert res.counters["failed_reduce_attempts"] == 2


class TestConstructValidation:
    """Every fault rejects bad parameters at install time, naming the
    offending field — a bad chaos schedule must fail loudly, not 2000
    simulated seconds into a campaign."""

    def test_task_fault_fields(self):
        rt = make_runtime()
        with pytest.raises(SimulationError, match="TaskFault.repeat"):
            TaskFault(TaskType.REDUCE, 0, 0.5, repeat=0).install(rt)
        with pytest.raises(SimulationError, match="TaskFault.task_index"):
            TaskFault(TaskType.REDUCE, -1, 0.5).install(rt)
        with pytest.raises(SimulationError, match="TaskFault.task_index"):
            TaskFault(TaskType.REDUCE, 99, 0.5).install(rt)
        with pytest.raises(SimulationError, match="TaskFault.at_progress"):
            TaskFault(TaskType.REDUCE, 0, -0.1).install(rt)

    def test_node_fault_fields(self):
        rt = make_runtime()
        with pytest.raises(SimulationError, match="NodeFault.duration"):
            NodeFault(target=0, at_time=1.0, duration=0.0).install(rt)
        with pytest.raises(SimulationError, match="NodeFault.target"):
            NodeFault(target=99, at_time=1.0).install(rt)
        with pytest.raises(SimulationError, match="NodeFault.target"):
            NodeFault(target="mapper", at_time=1.0).install(rt)
        with pytest.raises(SimulationError, match="NodeFault.at_time"):
            NodeFault(target=0, at_time=-1.0).install(rt)
        # An `after` trigger counts as a trigger: combining it with
        # at_time is ambiguous and rejected.
        with pytest.raises(SimulationError, match="exactly one trigger"):
            NodeFault(target=0, at_time=1.0,
                      after=EventTrigger("node_lost")).install(rt)

    def test_event_trigger_fields(self):
        rt = make_runtime()
        with pytest.raises(SimulationError, match="after.delay"):
            NodeFault(target=0, after=EventTrigger("node_lost", delay=-1.0)).install(rt)
        with pytest.raises(SimulationError, match="after.kind"):
            NodeFault(target=0, after=EventTrigger("")).install(rt)

    def test_rack_fault_fields(self):
        rt = make_runtime()  # 2 racks
        with pytest.raises(SimulationError, match="RackFault.rack_index"):
            RackFault(rack_index=5, at_time=1.0).install(rt)
        with pytest.raises(SimulationError, match="RackFault.count"):
            RackFault(rack_index=0, count=0, at_time=1.0).install(rt)
        with pytest.raises(SimulationError, match="RackFault.mode"):
            RackFault(rack_index=0, at_time=1.0, mode="flood").install(rt)
        with pytest.raises(SimulationError, match="RackFault.stagger"):
            RackFault(rack_index=0, at_time=1.0, stagger=-1.0).install(rt)

    def test_partition_fault_fields(self):
        rt = make_runtime()
        with pytest.raises(SimulationError, match="PartitionFault.node_indices"):
            PartitionFault(node_indices=(), at_time=1.0).install(rt)
        with pytest.raises(SimulationError, match="PartitionFault.node_indices"):
            PartitionFault(node_indices=(99,), at_time=1.0).install(rt)
        with pytest.raises(SimulationError, match="PartitionFault.duration"):
            PartitionFault(node_indices=(0,), at_time=1.0, duration=0.0).install(rt)

    def test_map_wave_fields(self):
        rt = make_runtime()
        with pytest.raises(SimulationError, match="MapWaveFault.count"):
            MapWaveFault(count=0, at_time=1.0).install(rt)
        with pytest.raises(SimulationError, match="MapWaveFault.at_time"):
            MapWaveFault(count=1, at_time=-1.0).install(rt)

    def test_slow_node_fields(self):
        rt = make_runtime()
        with pytest.raises(SimulationError, match="SlowNodeFault.disk_factor"):
            SlowNodeFault(node_index=0, at_time=1.0, disk_factor=0.0).install(rt)
        with pytest.raises(SimulationError, match="SlowNodeFault.nic_factor"):
            SlowNodeFault(node_index=0, at_time=1.0, nic_factor=1.5).install(rt)
        with pytest.raises(SimulationError, match="SlowNodeFault.at_time"):
            SlowNodeFault(node_index=0, at_time=-1.0).install(rt)
        with pytest.raises(SimulationError, match="SlowNodeFault.node_index"):
            SlowNodeFault(node_index=99, at_time=1.0).install(rt)
