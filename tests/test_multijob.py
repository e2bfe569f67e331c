"""Tests for multi-job (shared cluster) simulation."""

import hashlib

import pytest

from repro.alm import ALMPolicy
from repro.experiments.motivation import run_fleet
from repro.faults import AMFault, kill_node_at_progress, kill_reduce_at_progress
from repro.invariants import check_invariants
from repro.mapreduce.job import MapReduceRuntime
from repro.mapreduce.multijob import SharedCluster
from repro.sim.core import SimulationError
from repro.workloads.generator import TraceMix

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


class TestRunLoop:
    def test_hard_timeout_fails_only_the_unfinished_job(self):
        """The timeout lands between the short job's end (29 s) and the
        long one's (83 s): the short job keeps its own result."""
        sc = shared()
        sc.submit(tiny_workload(input_mb=256, name="short"), job_name="short")
        sc.submit(tiny_workload(input_mb=4096, name="long"), job_name="long")
        short, long_ = sc.run_all(timeout=50.0)
        assert short.success and "stalled" not in short.counters
        assert short.end_time < 50.0
        assert not long_.success
        assert long_.counters["stalled"]
        assert long_.end_time == 50.0
        assert long_.trace.count("stall_detected") == 1
        assert short.trace.count("stall_detected") == 0

    def test_waiting_for_a_delayed_job_is_not_a_stall(self):
        """Nothing moves while the cluster idles until a delayed
        submission; the watchdog counts that wait as progress."""
        sc = shared()
        sc.submit(tiny_workload(input_mb=256), job_name="first")
        sc.submit(tiny_workload(input_mb=256), job_name="later", delay=300.0)
        first, later = sc.run_all(stall_timeout=50.0)
        assert first.success and later.success
        assert later.start_time == 300.0

    def test_single_job_run_is_its_entry_of_run_all(self):
        sc = shared()
        sc.submit(tiny_workload(name="a"), job_name="a")
        job = sc.submit(tiny_workload(name="b"), job_name="b")
        result = job.run()
        assert result.job_name == "b" and result.success

    def test_shared_job_rejects_its_own_platform_config(self):
        sc = shared()
        with pytest.raises(SimulationError, match="shared cluster"):
            MapReduceRuntime(tiny_workload(), shared=sc, cluster_spec=small_cluster())
        assert sc.jobs == []

    def test_record_progress_job_cannot_join_an_occupied_cluster(self):
        """``record_progress`` takes the cluster-wide flow-completion
        hook, so it would log its neighbours' ``flow_done`` records."""
        sc = shared()
        first = sc.submit(tiny_workload(name="a"), job_name="a")
        hook = sc.cluster.flows.on_complete
        with pytest.raises(SimulationError, match="record_progress job cannot share"):
            MapReduceRuntime(tiny_workload(name="b"), job_name="b",
                             record_progress=True, shared=sc)
        assert sc.jobs == [first] and sc.cluster.flows.on_complete is hook

    def test_no_job_can_join_a_record_progress_job(self):
        sc = shared()
        first = MapReduceRuntime(tiny_workload(name="a"), job_name="a",
                                 record_progress=True, shared=sc)
        with pytest.raises(SimulationError, match="record_progress job cannot share"):
            sc.submit(tiny_workload(name="b"), job_name="b")
        assert sc.jobs == [first]
        result = first.run()
        assert result.success and result.trace.count("flow_done") > 0


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
        kill_reduce_at_progress(0.7).install(victim)
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
        kill_node_at_progress(0.3, target="reducer").install(a)
        ra, rb = sc.run_all()
        assert ra.success and rb.success
        # Both jobs observed the node loss (shared RM).
        assert ra.counters["nodes_lost"] == 1
        assert rb.counters["nodes_lost"] == 1

    def test_am_fault_restarts_only_its_own_job(self):
        """A shared-cluster job is a full runtime: its AM crash is
        recovered by an AM restart, and its neighbour never notices."""
        sc = shared()
        a = sc.submit(tiny_workload(input_mb=1024, name="a"), job_name="a")
        sc.submit(tiny_workload(input_mb=1024, name="b"), job_name="b")
        AMFault(at_progress=0.5).install(a)
        ra, rb = sc.run_all()
        assert ra.success and rb.success
        assert ra.counters["am_restarts"] == 1
        assert rb.counters["am_restarts"] == 0

    def test_every_job_keeps_the_invariants(self):
        sc = shared(nodes=8)
        a = sc.submit(tiny_workload(input_mb=1024, reducers=2, reduce_cpu=0.1, name="a"),
                      job_name="a")
        b = sc.submit(tiny_workload(input_mb=1024, reducers=2, reduce_cpu=0.1, name="b"),
                      job_name="b", delay=5.0)
        kill_node_at_progress(0.3, target="reducer").install(a)
        AMFault(at_progress=0.4).install(b)
        results = sc.run_all()
        assert results[1].counters["am_restarts"] == 1
        for job, result in zip(sc.jobs, results):
            assert result.success
            assert check_invariants(job, result) == []

    def test_per_job_policies(self):
        sc = shared()
        a = sc.submit(tiny_workload(name="a"), job_name="a")
        b = sc.submit(tiny_workload(name="b"), job_name="b", policy=ALMPolicy())
        ra, rb = sc.run_all()
        assert ra.policy == "yarn"
        assert rb.policy == "alm"


#: The six counters every shared-cluster result has always reported.
PINNED_COUNTERS = ("completed_maps", "committed_reduces", "failed_map_attempts",
                   "failed_reduce_attempts", "map_reruns", "nodes_lost")

#: Per job: name, success, start and end time (``float.hex``), the six
#: counters, and the length and a sha256 prefix of the ``reduce_progress``
#: series (each point as ``hex(t):hex(v)``). The series is pinned by name,
#: not through the whole trace digest, so series added to shared jobs'
#: traces leave these pins valid.
SHARED_PINS = {
    "crash": [
        ('a', True, '0x0.0p+0', '0x1.ccb851eb851eap+7',
         (8, 2, 0, 2, 2, 1), 116, '8053ba6daaaf4b3d'),
        ('b', True, '0x1.4000000000000p+2', '0x1.8e47ae147ae14p+6',
         (8, 2, 0, 1, 0, 1), 48, 'f5c0461c73c3a102'),
    ],
    "pair": [
        ('short', True, '0x0.0p+0', '0x1.d000000000000p+4',
         (2, 2, 0, 0, 0, 0), 15, '183f43e04f4a5d86'),
        ('long', True, '0x0.0p+0', '0x1.4df258bf258c0p+6',
         (32, 2, 0, 0, 0, 0), 42, '533786e92b78209e'),
    ],
    "yarn-clean": [
        ('j0-terasort', True, '0x0.0p+0', '0x1.01f6bb0557505p+4',
         (24, 22, 0, 0, 0, 0), 9, '63cc02a8d6c37b3e'),
        ('j1-terasort', True, '0x1.d4f63130b04a6p-2', '0x1.703b29852a7b4p+3',
         (7, 72, 0, 0, 0, 0), 6, 'c2d23bdcb8206b21'),
        ('j2-wordcount', True, '0x1.2c0abf7b8db86p+0', '0x1.859476fe1370ap+4',
         (15, 19, 0, 0, 0, 0), 12, '31439597b029bd4c'),
        ('j3-terasort', True, '0x1.06b71fbcfaa81p+3', '0x1.397610601747dp+4',
         (8, 17, 0, 0, 0, 0), 6, '089912c336984aa3'),
    ],
    "yarn-faulty": [
        ('j0-terasort', True, '0x0.0p+0', '0x1.dd514087b2c1dp+7',
         (24, 22, 0, 2, 2, 2), 120, 'e6419cea0aa66fb9'),
        ('j1-terasort', True, '0x1.d4f63130b04a6p-2', '0x1.f710e6cbe5deep+6',
         (7, 72, 0, 0, 2, 2), 63, 'cd69eaacd1e7ddbc'),
        ('j2-wordcount', True, '0x1.2c0abf7b8db86p+0', '0x1.a00a6b734bb7fp+6',
         (15, 19, 0, 0, 0, 2), 52, '9be1e11d2e05dbc8'),
        ('j3-terasort', True, '0x1.06b71fbcfaa81p+3', '0x1.6da89a28bc253p+6',
         (8, 17, 0, 0, 0, 2), 42, '3e0541c1a6fa7016'),
    ],
    "alm-clean": [
        ('j0-terasort', True, '0x0.0p+0', '0x1.ffe733597968bp+3',
         (24, 22, 0, 0, 0, 0), 8, '5162bf5a22ae91ef'),
        ('j1-terasort', True, '0x1.d4f63130b04a6p-2', '0x1.72b62cac2b181p+3',
         (7, 72, 0, 0, 0, 0), 6, 'c2d23bdcb8206b21'),
        ('j2-wordcount', True, '0x1.2c0abf7b8db86p+0', '0x1.858aa426c1052p+4',
         (15, 19, 0, 0, 0, 0), 12, '5c9690341d895d63'),
        ('j3-terasort', True, '0x1.06b71fbcfaa81p+3', '0x1.364182a49a851p+4',
         (8, 17, 0, 0, 0, 0), 6, '089912c336984aa3'),
    ],
    "alm-faulty": [
        ('j0-terasort', True, '0x0.0p+0', '0x1.9ec1411b79066p+6',
         (24, 22, 0, 0, 2, 2), 52, '2b7164ae917555f0'),
        ('j1-terasort', True, '0x1.d4f63130b04a6p-2', '0x1.97186147cba30p+6',
         (7, 72, 0, 0, 2, 2), 51, '732e299bcc90b0d4'),
        ('j2-wordcount', True, '0x1.2c0abf7b8db86p+0', '0x1.ae1a9bc2f7564p+6',
         (15, 19, 0, 0, 0, 2), 54, 'd336933ddfc82d84'),
        ('j3-terasort', True, '0x1.06b71fbcfaa81p+3', '0x1.78a28a9594b84p+6',
         (8, 17, 0, 0, 0, 2), 43, 'bcfae168f70d964d'),
    ],
}


def _pinned_outcome(result):
    series = result.trace.series_values("reduce_progress")
    blob = ",".join(f"{t.hex()}:{v.hex()}" for t, v in series)
    return (result.job_name, result.success, result.start_time.hex(),
            result.end_time.hex(), tuple(result.counters[k] for k in PINNED_COUNTERS),
            len(series), hashlib.sha256(blob.encode()).hexdigest()[:16])


class TestSharedOutcomesPinned:
    """Per-job outcomes of shared-cluster runs, float for float."""

    def test_node_crash_beside_a_delayed_task_fault(self):
        sc = shared(nodes=8)
        a = sc.submit(tiny_workload(input_mb=1024, reducers=2, reduce_cpu=0.1, name="a"),
                      job_name="a")
        b = sc.submit(tiny_workload(input_mb=1024, reducers=2, reduce_cpu=0.1, name="b"),
                      job_name="b", delay=5.0)
        kill_node_at_progress(0.3, target="reducer").install(a)
        kill_reduce_at_progress(0.7).install(b)
        assert [_pinned_outcome(r) for r in sc.run_all()] == SHARED_PINS["crash"]

    def test_short_and_long_pair(self):
        sc = shared()
        sc.submit(tiny_workload(input_mb=256, name="short"), job_name="short")
        sc.submit(tiny_workload(input_mb=4096, name="long"), job_name="long")
        assert [_pinned_outcome(r) for r in sc.run_all()] == SHARED_PINS["pair"]

    @pytest.mark.parametrize("policy, reduce_failures", [("yarn", 2), ("alm", 0)])
    def test_motivation_fleet(self, monkeypatch, policy, reduce_failures):
        runs = []
        run_all = SharedCluster.run_all

        def recording_run_all(self, *args, **kwargs):
            runs.append(run_all(self, *args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(SharedCluster, "run_all", recording_run_all)
        mix = TraceMix(num_jobs=4, seed=11, median_input_gb=1.0, mean_interarrival=10.0)
        fleet = run_fleet(policy, mix)
        clean, faulty = ([_pinned_outcome(r) for r in results] for results in runs)
        assert clean == SHARED_PINS[f"{policy}-clean"]
        assert faulty == SHARED_PINS[f"{policy}-faulty"]
        assert fleet.failed_jobs == 0
        assert fleet.total_reduce_failures == reduce_failures
        assert fleet.makespan == max(float.fromhex(row[3]) for row in
                                     SHARED_PINS[f"{policy}-faulty"])
