"""AM failure & restart: job-history recovery, container adoption,
attempt exhaustion, and AM crashes composed with data-plane faults."""

import pytest

from repro.faults import (
    AMFault,
    EventTrigger,
    FaultInjector,
    NodeFault,
    PartitionFault,
)
from repro.invariants import check_invariants
from repro.mapreduce.config import JobConf
from repro.sim.core import SimulationError
from repro.yarn import YarnConfig

from tests.conftest import make_runtime, tiny_workload


def run_checked(rt, **kw):
    res = rt.run(**kw)
    violations = check_invariants(rt, res)
    assert violations == [], violations
    return res


def slow_reduce_workload():
    """Reduces slow enough that an AM crash at 50% reduce progress
    lands well after every map has completed."""
    return tiny_workload(reduce_cpu=0.1)


def maps_succeeded_before(trace, kind="am_crashed"):
    """Map task names that completed before the first ``kind`` event."""
    cutoff = trace.first(kind)
    assert cutoff is not None
    return {e.data["task"] for e in trace.of_kind("attempt_success")
            if e.data["task"].startswith("map-") and e.time <= cutoff.time}


def map_starts_after(trace, kind="am_restarted"):
    """Map task names (re)started after the first ``kind`` event."""
    mark = trace.first(kind)
    assert mark is not None
    return {e.data["task"] for e in trace.of_kind("attempt_start")
            if e.data["task"].startswith("map-") and e.time > mark.time}


class TestRecoveryAblation:
    def test_log_recovery_reexecutes_zero_surviving_maps(self):
        """The acceptance claim: crash the AM at 50% reduce progress
        with am_recovery="log" — every completed map whose MOF is still
        on a live node is recovered from the job-history log, and *none*
        of them is re-executed (zero post-restart map attempt_starts)."""
        rt = make_runtime(slow_reduce_workload())
        FaultInjector(AMFault(at_progress=0.5)).install(rt)
        res = run_checked(rt)
        assert res.success
        assert res.counters["am_restarts"] == 1
        done_before = maps_succeeded_before(rt.trace)
        assert done_before  # the crash landed mid-job, not before work
        recovered = {e.data["task"] for e in rt.trace.of_kind("map_recovered")}
        assert recovered == done_before
        assert map_starts_after(rt.trace) == set()

    def test_rerun_all_reexecutes_completed_maps(self):
        """The ablation: same crash, am_recovery="rerun-all" — the new
        AM starts from scratch and re-runs every completed map."""
        rt = make_runtime(slow_reduce_workload(),
                          conf=JobConf(am_recovery="rerun-all"))
        FaultInjector(AMFault(at_progress=0.5)).install(rt)
        res = run_checked(rt)
        assert res.success
        done_before = maps_succeeded_before(rt.trace)
        assert done_before
        assert rt.trace.count("map_recovered") == 0
        assert done_before <= map_starts_after(rt.trace)

    def test_ablation_pair_from_one_trace(self):
        """log strictly dominates rerun-all on re-executed maps — the
        paper's replay-vs-scratch argument, one layer up."""
        def rerun_count(conf):
            rt = make_runtime(slow_reduce_workload(), conf=conf)
            FaultInjector(AMFault(at_progress=0.5)).install(rt)
            res = run_checked(rt)
            assert res.success
            return len(maps_succeeded_before(rt.trace)
                       & map_starts_after(rt.trace))

        assert rerun_count(JobConf(am_recovery="log")) == 0
        assert rerun_count(JobConf(am_recovery="rerun-all")) > 0


class TestKeepContainers:
    def test_adoption_keeps_running_reducers(self):
        """keep_containers=True: in-flight attempts survive the crash
        as orphans and the next incarnation adopts them instead of
        starting over."""
        rt = make_runtime(slow_reduce_workload(),
                          conf=JobConf(keep_containers_across_am_restart=True))
        FaultInjector(AMFault(at_progress=0.5)).install(rt)
        res = run_checked(rt)
        assert res.success
        adopted = rt.trace.of_kind("attempt_adopted")
        assert adopted, "expected at least one adopted attempt"
        adopted_ids = {e.data["attempt"] for e in adopted}
        # An adopted attempt is never also restarted from scratch.
        post = {e.data["attempt"] for e in rt.trace.of_kind("attempt_start")
                if e.time > rt.trace.first("am_restarted").time}
        assert adopted_ids.isdisjoint(post)

    def test_teardown_without_keep_containers(self):
        """keep_containers=False: survivors are torn down with the
        crashed AM; running reduces restart from scratch."""
        rt = make_runtime(slow_reduce_workload(),
                          conf=JobConf(keep_containers_across_am_restart=False))
        FaultInjector(AMFault(at_progress=0.5)).install(rt)
        res = run_checked(rt)
        assert res.success
        assert rt.trace.count("attempt_adopted") == 0
        # Every reduce ran again after the restart.
        mark = rt.trace.first("am_restarted").time
        restarted = {e.data["task"] for e in rt.trace.of_kind("attempt_start")
                     if e.data["type"] == "reduce" and e.time > mark}
        assert len(restarted) == rt.am.num_reduces

    def test_orphan_completion_during_downtime_is_replayed(self):
        """A map that finishes while no AM is alive reports into the
        void; the report is stashed and replayed by the successor —
        counted exactly once, container released (invariants verify)."""
        rt = make_runtime(tiny_workload(map_cpu=0.08),
                          conf=JobConf(keep_containers_across_am_restart=True,
                                       am_restart_delay=10.0))
        FaultInjector(AMFault(at_time=4.0)).install(rt)
        res = run_checked(rt)
        assert res.success
        assert res.counters["completed_maps"] == rt.am.num_maps


class TestComposedFaults:
    def test_node_lost_during_am_downtime(self):
        """A node dies right after the AM and is declared lost while no
        AM is listening: the new incarnation must not recover maps whose
        MOFs went down with the node, and must re-run them."""
        rt = make_runtime(
            slow_reduce_workload(),
            yarn_config=YarnConfig(nm_liveness_timeout=3.0),
            conf=JobConf(am_restart_delay=8.0))
        # A fixed worker index: "reducer" targeting cannot resolve a
        # victim once the crashed AM's attempts have been torn down.
        node_fault = NodeFault(target=1, mode="crash",
                               after=EventTrigger("am_crashed", delay=0.5))
        FaultInjector(AMFault(at_progress=0.5), node_fault).install(rt)
        res = run_checked(rt)
        assert res.success
        # The loss was declared while no AM was alive: nobody logged a
        # node_lost event (the trace is the AM's view of the world).
        assert node_fault.fired_at is not None
        assert rt.trace.first("node_lost") is None
        # Maps recovered + maps re-run covers every pre-crash completion.
        recovered = {e.data["task"] for e in rt.trace.of_kind("map_recovered")}
        rerun = map_starts_after(rt.trace)
        assert maps_succeeded_before(rt.trace) <= (recovered | rerun)

    def test_partition_heals_mid_restart(self):
        """A transient partition straddles the AM downtime window: it
        opens before the crash and heals after the new AM started."""
        rt = make_runtime(slow_reduce_workload(),
                          conf=JobConf(am_restart_delay=6.0))
        FaultInjector(
            AMFault(at_time=20.0),
            PartitionFault(node_indices=(2,), at_time=18.0, duration=12.0),
        ).install(rt)
        res = run_checked(rt)
        assert res.success
        assert res.counters["am_restarts"] == 1

    def test_am_crash_under_lossy_rpc(self):
        """The full stack at once: AM restart over a dropping/delaying
        control plane, deterministically."""
        def run():
            rt = make_runtime(
                slow_reduce_workload(),
                yarn_config=YarnConfig(nm_liveness_timeout=20.0,
                                       rpc_drop_prob=0.1, rpc_delay_prob=0.15,
                                       rpc_seed=23))
            FaultInjector(AMFault(at_progress=0.5)).install(rt)
            res = run_checked(rt)
            assert res.success
            return res.trace.digest()

        assert run() == run()


class TestAttemptExhaustion:
    def test_exhaustion_fails_the_job_cleanly(self):
        rt = make_runtime(slow_reduce_workload(),
                          conf=JobConf(am_max_attempts=2))
        fault = AMFault(at_progress=0.3, repeat=2, repeat_gap=6.0)
        FaultInjector(fault).install(rt)
        res = run_checked(rt)
        assert not res.success
        assert rt.trace.count("am_attempts_exhausted") == 1
        assert len(fault.fired_times) == 2

    def test_higher_budget_survives_the_same_schedule(self):
        rt = make_runtime(slow_reduce_workload(),
                          conf=JobConf(am_max_attempts=3))
        FaultInjector(AMFault(at_progress=0.3, repeat=2,
                              repeat_gap=6.0)).install(rt)
        res = run_checked(rt)
        assert res.success
        assert res.counters["am_restarts"] == 2

    def test_kill_am_on_dead_am_is_refused(self):
        rt = make_runtime(tiny_workload())
        run_checked(rt)
        assert rt.kill_am() is False  # job done: nothing to kill

    def test_am_fault_validation(self):
        with pytest.raises(SimulationError):
            AMFault().install(make_runtime(tiny_workload()))
        with pytest.raises(SimulationError):
            AMFault(at_time=1.0, at_progress=0.5).install(
                make_runtime(tiny_workload()))
        with pytest.raises(SimulationError):
            AMFault(at_time=1.0, repeat=0).install(make_runtime(tiny_workload()))


class TestTeardownGuards:
    def test_vanished_attempt_on_dead_am_is_ignored(self):
        """Regression (teardown race): an attempt vanishing while the
        AM is dead must not arm a task-timeout that would reschedule
        work against a dead job."""
        rt = make_runtime(slow_reduce_workload())
        rt.am.start()
        rt.sim.run(until=2.0)  # first map wave in flight
        am = rt.am
        attempt = next(a for t in am.map_tasks + am.reduce_tasks
                       for a in t.running_attempts())
        # Positive control first: a live AM arms a task-timeout watch
        # (one new event on the heap) ...
        before = len(rt.sim._heap)
        am.on_attempt_vanished(attempt)
        assert len(rt.sim._heap) == before + 1
        # ... a dead one must not.
        am.crash(keep_containers=True)
        before = len(rt.sim._heap)
        am.on_attempt_vanished(attempt)
        assert len(rt.sim._heap) == before

    def test_finish_on_dead_am_is_ignored(self):
        rt = make_runtime(slow_reduce_workload())
        rt.am.start()
        rt.sim.run(until=2.0)
        am = rt.am
        am.crash(keep_containers=True)
        am._finish(success=True)
        assert not am.done.triggered

    def test_crash_is_idempotent(self):
        rt = make_runtime(slow_reduce_workload())
        rt.am.start()
        rt.sim.run(until=2.0)
        rt.am.crash(keep_containers=False)
        rt.am.crash(keep_containers=False)  # no-op, no double teardown
        assert rt.am.dead


class TestChaosIntegration:
    def test_am_fault_pool_is_opt_in(self):
        """Without am_faults the generator pool is unchanged — the
        frozen chaos scenarios keep regenerating byte-identically."""
        from repro.faults.chaos import AM_FAULT_KINDS, generate_trial

        for idx in range(24):
            spec = generate_trial({"seed": 2015, "scale": 0.5}, idx)
            kinds = {f["kind"] for f in spec["faults"]}
            assert not kinds & {"am-crash", "rpc-loss"}
            assert "conf" not in spec
        assert AM_FAULT_KINDS == ("am-crash", "rpc-loss", "am-crash-rpc-loss")

    def test_am_fault_trial_is_deterministic(self):
        from repro.faults.chaos import generate_trial, run_trial_spec

        campaign = {"seed": 11, "scale": 0.4, "am_faults": True}
        spec = generate_trial(campaign, 8)
        assert any(f["kind"] in ("am-crash", "rpc-loss")
                   for f in spec["faults"])
        a = run_trial_spec(spec)
        b = run_trial_spec(spec)
        assert a["violations"] == [] and b["violations"] == []
        assert a["digest"] == b["digest"]
