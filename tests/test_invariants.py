"""Unit tests for the post-run invariant checkers."""

import pytest

from repro.alm.sfm import ALMPolicy
from repro.faults import NodeFault, PartitionFault
from repro.invariants import (
    INVARIANTS,
    InvariantViolation,
    check_invariants,
)
from repro.campaign import CampaignStore
from repro.runner import TrialResult, TrialRunner, spec_digest
from repro.sim.core import SimulationError

from tests.conftest import make_runtime, tiny_workload


def _violating_trial(seed):
    return {"invariant_violations": [f"seed {seed}: bytes gone"]}


def run_checked(rt):
    res = rt.run()
    return res, check_invariants(rt, res)


class TestCleanRuns:
    def test_fault_free_run_passes_all(self):
        rt = make_runtime()
        res, violations = run_checked(rt)
        assert res.success
        assert violations == []

    def test_every_policy_passes_under_node_crash(self):
        for policy in (None, ALMPolicy()):
            rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1),
                              policy=policy)
            NodeFault(target="reducer", at_progress=0.5, mode="crash").install(rt)
            res, violations = run_checked(rt)
            assert res.success
            assert violations == []

    def test_partition_with_recovery_passes(self):
        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1),
                          policy=ALMPolicy())
        # Duration exceeds the 20 s liveness timeout: full lost->rejoin.
        # One node only — partitioning two can strand both replicas of an
        # input block (replication=2), which legitimately fails the job.
        PartitionFault(node_indices=(0,), at_time=4.0, duration=60.0).install(rt)
        res, violations = run_checked(rt)
        assert res.success
        assert violations == []

    def test_unknown_invariant_name_rejected(self):
        rt = make_runtime()
        res = rt.run()
        with pytest.raises(SimulationError):
            check_invariants(rt, res, names=["no-such-check"])


class TestViolationDetection:
    """Each checker must actually flag the breakage it guards against."""

    def test_leaked_container_detected(self):
        rt = make_runtime()
        res = rt.run()
        nm = next(iter(rt.rm.node_managers.values()))
        nm.allocate(1024)  # simulate a container nobody released
        violations = check_invariants(rt, res, names=["containers_released"])
        assert violations and "containers" in violations[0]

    def test_dead_replica_detected(self):
        rt = make_runtime()
        res = rt.run()
        some_block = next(iter(rt.hdfs._files.values())).blocks[0]
        dead = some_block.replicas[0]
        dead.alive = False
        violations = check_invariants(rt, res, names=["hdfs_consistency"])
        assert violations and "dead replica" in violations[0]

    def test_missing_replica_file_detected(self):
        rt = make_runtime()
        res = rt.run()
        some_block = next(iter(rt.hdfs._files.values())).blocks[0]
        some_block.replicas[0].delete_file(rt.hdfs._replica_path(some_block))
        violations = check_invariants(rt, res, names=["hdfs_consistency"])
        assert violations and "missing from" in violations[0]

    def test_byte_conservation_detects_lost_bytes(self):
        rt = make_runtime()
        res = rt.run()
        assert check_invariants(rt, res, names=["byte_conservation"]) == []
        record = next(iter(rt.am.reduce_commits.values()))
        record["input_bytes"] *= 0.5  # half the partition went missing
        violations = check_invariants(rt, res, names=["byte_conservation"])
        assert violations and "covered" in violations[0]

    def test_time_travelling_trace_event_detected(self):
        rt = make_runtime()
        res = rt.run()
        assert check_invariants(rt, res, names=["trace_monotonic"]) == []
        rt.trace.events[10].time = rt.trace.events[9].time - 1.0
        violations = check_invariants(rt, res, names=["trace_monotonic"])
        assert violations and "logged after" in violations[0]

    def test_stall_flag_is_a_termination_violation(self):
        rt = make_runtime()
        res = rt.run()
        res.counters["stalled"] = True
        res.counters["stall_reason"] = "synthetic"
        violations = check_invariants(rt, res, names=["termination"])
        assert violations and "stalled" in violations[0]


class TestStallWatchdog:
    def test_hard_timeout_produces_failed_result(self):
        rt = make_runtime()
        # stall_timeout sets the watchdog's check cadence (timeout/4,
        # floored at 1 s) — keep it small so the hard ceiling is noticed
        # before the job simply finishes.
        res = rt.run(timeout=0.5, stall_timeout=4.0)
        assert not res.success
        assert res.counters["stalled"]
        assert "timeout" in res.counters["stall_reason"]
        assert check_invariants(rt, res, names=["termination"])

    def test_registry_is_complete(self):
        assert set(INVARIANTS) == {
            "termination", "byte_conservation", "no_orphans",
            "containers_released", "hdfs_consistency", "trace_monotonic",
            "am_singleton", "am_no_orphans",
        }


class TestRunnerIntegration:
    def test_runner_raises_on_violating_payload(self):
        results = [TrialResult("exp", 1, {"invariant_violations": ["bytes: gone"]})]
        with pytest.raises(InvariantViolation):
            TrialRunner._check_invariant_payloads("exp", results)

    def test_stored_violating_payload_raises_on_cache_hit(self, tmp_path):
        """A trial served from the store goes through the same invariant
        check as a fresh one, so a resumed violating cell cannot slip
        through."""
        db = tmp_path / "trials.db"
        runner = TrialRunner(jobs=1, store=db)
        for _ in range(2):  # fresh, then a cache hit
            with pytest.raises(InvariantViolation):
                runner.run("viol", _violating_trial, [1])
        with CampaignStore(db) as store:
            assert store.max_run_count(spec_digest("viol", _violating_trial, {})) == 1

    def test_runner_passes_clean_payload(self):
        results = [TrialResult("exp", 1, {"invariant_violations": []}),
                   TrialResult("exp", 2, {})]
        TrialRunner._check_invariant_payloads("exp", results)

    def test_trial_always_records_violations(self):
        from repro.experiments.common import ExperimentConfig, run_benchmark_trial
        from tests.conftest import small_cluster

        cfg = ExperimentConfig(cluster=small_cluster())
        payload = run_benchmark_trial(42, tiny_workload(), "alm", base_config=cfg)
        assert payload["invariant_violations"] == []
