"""Double-failure scenarios: a second fault landing while recovery from
the first is still in flight, plus the fault-engine plumbing that makes
those schedules safe to express (skip events, double-install rejection)."""

import pytest

from repro.alm.sfm import ALMPolicy
from repro.faults import (
    EventTrigger,
    FaultInjector,
    NodeFault,
    PartitionFault,
    TaskFault,
)
from repro.invariants import check_invariants
from repro.mapreduce.tasks import TaskType
from repro.policies import make_policy
from repro.sim.core import SimulationError

from tests.conftest import make_runtime, tiny_workload


def run_checked(rt):
    res = rt.run()
    violations = check_invariants(rt, res)
    assert violations == [], violations
    return res


class TestCrashDuringRecovery:
    def test_second_crash_after_first_node_lost(self):
        """A second node dies 10 s after the RM declares the first lost —
        recovery of the first reducer is still in flight. Replication 3:
        with the default 2, losing two nodes for good can legitimately
        destroy both replicas of an input block and fail the job."""
        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1),
                          policy=ALMPolicy(), replication=3)
        first = NodeFault(target="reducer", at_progress=0.4, mode="crash")
        second = NodeFault(target="reducer", mode="crash",
                           after=EventTrigger("node_lost", delay=10.0))
        FaultInjector(first, second).install(rt)
        res = run_checked(rt)
        assert res.success
        assert first.fired_at is not None and second.fired_at is not None
        assert second.victim_name != first.victim_name
        assert res.counters["nodes_lost"] == 2

    def test_second_crash_during_recovery_under_yarn(self):
        """Same schedule under stock YARN (re-execution recovery)."""
        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1),
                          replication=3)
        first = NodeFault(target="reducer", at_progress=0.4, mode="crash")
        second = NodeFault(target="reducer", mode="crash",
                           after=EventTrigger("node_lost", delay=10.0))
        FaultInjector(first, second).install(rt)
        res = run_checked(rt)
        assert res.success
        assert second.fired_at is not None

    def test_oom_kills_the_recovery_attempt_too(self):
        """TaskFault(repeat=2) re-arms against the recovery attempt: the
        fault-during-recovery scenario at task granularity."""
        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1),
                          policy=ALMPolicy())
        fault = TaskFault(TaskType.REDUCE, task_index=0, at_progress=0.5,
                          repeat=2)
        fault.install(rt)
        res = run_checked(rt)
        assert res.success
        assert len(fault.fired_times) == 2
        # Two distinct attempts of the same task were killed.
        oom_events = [e for e in rt.trace.of_kind("fault_injected")
                      if e.data.get("fault") == "task-oom"]
        assert len({e.data["attempt"] for e in oom_events}) == 2

    def test_crash_of_node_hosting_alg_logs(self):
        """Under ALG the reduce state lives in replicated analytics logs;
        crashing the reducer's node must still recover from a replica."""
        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1),
                          policy=make_policy("alg"))
        fault = NodeFault(target="reducer", at_progress=0.5, mode="crash")
        fault.install(rt)
        res = run_checked(rt)
        assert res.success
        assert fault.fired_at is not None


class TestFaultPlumbing:
    def test_double_install_rejected(self):
        rt = make_runtime()
        inj = FaultInjector(TaskFault(TaskType.REDUCE, 0, 0.5))
        inj.install(rt)
        with pytest.raises(SimulationError, match="already installed"):
            inj.install(make_runtime())
        rt.run()

    def test_skipped_faults_are_logged_not_silent(self):
        """A fault whose victim is already down logs ``fault_skipped``
        with a reason instead of silently returning."""
        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1))
        FaultInjector(
            NodeFault(target=1, at_time=5.0, mode="crash"),
            NodeFault(target=1, at_time=10.0, mode="crash"),   # already dead
            PartitionFault(node_indices=(1,), at_time=15.0, duration=5.0),
        ).install(rt)
        res = rt.run()
        assert res.success
        skipped = rt.trace.of_kind("fault_skipped")
        assert len(skipped) == 2
        reasons = {e.data["reason"] for e in skipped}
        assert reasons == {"victim already down", "all targets already unreachable"}
