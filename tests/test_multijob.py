"""Tests for multi-job (shared cluster) simulation."""

import pytest

from repro.alm import ALMPolicy
from repro.faults import AMFault, kill_node_at_progress, kill_reduce_at_progress
from repro.mapreduce.multijob import SharedCluster
from repro.sim.core import SimulationError

from tests.conftest import small_cluster, tiny_workload
from repro.yarn.rm import YarnConfig


def shared(nodes=6, seed=42):
    return SharedCluster(
        cluster_spec=small_cluster(nodes, seed),
        yarn_config=YarnConfig(nm_liveness_timeout=20.0),
    )


class TestSubmission:
    def test_two_jobs_complete(self):
        sc = shared()
        sc.submit(tiny_workload(name="a"), job_name="a")
        sc.submit(tiny_workload(name="b"), job_name="b")
        results = sc.run_all()
        assert [r.job_name for r in results] == ["a", "b"]
        assert all(r.success for r in results)

    def test_delayed_submission(self):
        sc = shared()
        sc.submit(tiny_workload(), job_name="first")
        sc.submit(tiny_workload(), job_name="second", delay=30.0)
        r1, r2 = sc.run_all()
        assert r2.start_time >= 30.0
        assert r2.start_time > r1.start_time

    def test_run_without_jobs_rejected(self):
        with pytest.raises(SimulationError):
            shared().run_all()

    def test_no_submission_after_run(self):
        sc = shared()
        sc.submit(tiny_workload())
        sc.run_all()
        with pytest.raises(SimulationError):
            sc.submit(tiny_workload())

    def test_finished_job_stops_sampling(self):
        """Each job's sampler stops with its AM: a short job sharing the
        cluster with a long one takes no sample after its own end."""
        sc = shared()
        sc.submit(tiny_workload(input_mb=256, name="short"), job_name="short")
        sc.submit(tiny_workload(input_mb=4096, name="long"), job_name="long")
        short, long_ = sc.run_all()
        assert short.end_time < long_.end_time
        for result in (short, long_):
            times = [t for t, _ in result.trace.series_values("reduce_progress")]
            assert times
            assert max(times) <= result.end_time


class TestContention:
    def test_concurrent_jobs_slower_than_alone(self):
        wl = lambda: tiny_workload(input_mb=1024, reducers=2, name="t")
        alone = shared()
        alone.submit(wl())
        t_alone = alone.run_all()[0].elapsed

        together = shared()
        together.submit(wl(), job_name="a")
        together.submit(wl(), job_name="b")
        results = together.run_all()
        assert max(r.elapsed for r in results) > t_alone

    def test_jobs_share_but_all_finish(self):
        sc = shared()
        for i in range(3):
            sc.submit(tiny_workload(input_mb=256, name=f"w{i}"), job_name=f"w{i}")
        results = sc.run_all()
        assert all(r.success for r in results)
        for nm in sc.rm.node_managers.values():
            assert nm.used_mb == 0  # everything released


class TestFaultIsolation:
    def test_task_failure_in_one_job_does_not_fail_other(self):
        sc = shared()
        victim = sc.submit(tiny_workload(reducers=1, reduce_cpu=0.1, name="v"),
                           job_name="victim")
        bystander = sc.submit(tiny_workload(name="b"), job_name="bystander")
        victim.install(kill_reduce_at_progress(0.7))
        rv, rb = sc.run_all()
        assert rv.success and rb.success
        assert rv.counters["failed_reduce_attempts"] == 1
        assert rb.counters["failed_reduce_attempts"] == 0

    def test_node_loss_hits_both_jobs_but_both_recover(self):
        sc = shared(nodes=8)
        a = sc.submit(tiny_workload(input_mb=1024, reducers=2,
                                    reduce_cpu=0.1, name="a"), job_name="a")
        b = sc.submit(tiny_workload(input_mb=1024, reducers=2,
                                    reduce_cpu=0.1, name="b"), job_name="b",
                      policy=ALMPolicy())
        a.install(kill_node_at_progress(0.3, target="reducer"))
        ra, rb = sc.run_all()
        assert ra.success and rb.success
        # Both jobs observed the node loss (shared RM).
        assert ra.counters["nodes_lost"] == 1
        assert rb.counters["nodes_lost"] == 1

    def test_am_fault_on_a_job_handle_is_rejected(self):
        """A shared-cluster job has no AM restart: the fault fails at
        install, naming itself, not mid-run."""
        sc = shared()
        job = sc.submit(tiny_workload(name="a"), job_name="a")
        with pytest.raises(SimulationError, match="AMFault: JobHandle cannot restart its AM"):
            job.install(AMFault(at_progress=0.5))

    def test_per_job_policies(self):
        sc = shared()
        a = sc.submit(tiny_workload(name="a"), job_name="a")
        b = sc.submit(tiny_workload(name="b"), job_name="b", policy=ALMPolicy())
        ra, rb = sc.run_all()
        assert ra.policy == "yarn"
        assert rb.policy == "alm"
