"""Integration-grade tests for ReduceTask execution and the AppMaster."""

import pytest

from repro.faults import AMFault, SlowNodeFault, kill_node_at_progress, kill_reduce_at_progress
from repro.mapreduce.config import JobConf
from repro.mapreduce.speculation import SpeculationConfig
from repro.mapreduce.tasks import TaskState

from tests.conftest import make_runtime, tiny_workload


def _listed_reduce_progress(am) -> float:
    """Oracle for ``MRAppMaster.reduce_phase_progress``: the
    list-building loop it replaced (``running_attempts()`` per
    unfinished task, builtin ``max``)."""
    if not am.reduce_tasks:
        return 1.0
    total = 0.0
    for task in am.reduce_tasks:
        if task.state is TaskState.SUCCEEDED:
            total += 1.0
        else:
            running = task.running_attempts()
            if running:
                total += max(a.progress for a in running)
    return total / am.num_reduces


class TestReduceExecution:
    def test_job_completes_and_accounts_all_bytes(self):
        rt = make_runtime(tiny_workload(reducers=3))
        res = rt.run()
        assert res.success
        total_in = sum(
            t.attempts[-1].total_input_bytes for t in rt.am.reduce_tasks
        )
        assert total_in == pytest.approx(rt.workload.shuffle_bytes, rel=1e-6)

    def test_reduce_output_lands_in_hdfs(self):
        rt = make_runtime(tiny_workload(reducers=2, reduce_sel=0.5))
        rt.run()
        out_paths = [p for p in rt.hdfs._files if p.startswith("out/")]
        assert len(out_paths) == 2
        total_out = sum(rt.hdfs.file(p).size for p in out_paths)
        assert total_out == pytest.approx(rt.workload.shuffle_bytes * 0.5, rel=1e-6)

    def test_large_batches_go_straight_to_disk(self):
        # Shrink the reduce heap so per-host batches exceed the
        # single-segment memory limit.
        conf = JobConf(reduce_memory_mb=256)
        rt = make_runtime(tiny_workload(input_mb=1024, reducers=1), conf=conf)
        rt.run()
        attempt = rt.am.reduce_tasks[0].attempts[0]
        assert attempt.disk_segments  # something was spilled or fetched to disk

    def test_in_memory_merge_spills_above_trigger(self):
        conf = JobConf(reduce_memory_mb=512)
        rt = make_runtime(tiny_workload(input_mb=2048, reducers=1), conf=conf)
        rt.run()
        attempt = rt.am.reduce_tasks[0].attempts[0]
        spills = [s for s in attempt.disk_segments]
        assert spills
        # Everything fetched must be accounted: memory + disk == total.
        assert attempt.total_input_bytes == pytest.approx(
            rt.workload.shuffle_bytes, rel=1e-6)

    def test_final_merge_reduces_segment_count(self):
        # Force many tiny on-disk segments with a small io_sort_factor.
        conf = JobConf(io_sort_factor=2, reduce_memory_mb=256)
        rt = make_runtime(tiny_workload(input_mb=1024, reducers=1), conf=conf)
        rt.run()
        attempt = rt.am.reduce_tasks[0].attempts[0]
        assert len(attempt.disk_segments) <= 2

    def test_reduce_progress_monotone(self):
        rt = make_runtime(tiny_workload(reducers=1))
        samples = []

        def probe():
            vals = [a.progress for t in rt.am.reduce_tasks for a in t.running_attempts()]
            return vals[0] if vals else -1.0

        rt.sampler.add_probe("attempt_progress", probe)
        rt.run()
        series = [v for _, v in rt.trace.series_values("attempt_progress") if v >= 0]
        assert series, "no progress samples collected"
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
        assert series[-1] <= 1.0


class TestAppMaster:
    def test_slowstart_defers_reducers(self):
        conf = JobConf(slowstart_completed_maps=0.9)
        rt = make_runtime(tiny_workload(input_mb=1024), conf=conf)
        rt.run()
        first_reduce = rt.trace.first("attempt_start", type="reduce")
        map_starts = rt.trace.times("attempt_start")
        assert first_reduce is not None
        # At least 90% of maps completed before any reducer started.
        completed_before = sum(
            1 for e in rt.trace.of_kind("attempt_success")
            if e.time <= first_reduce.time and e.data["task"].startswith("map")
        )
        assert completed_before >= 0.9 * rt.am.num_maps

    def test_all_tasks_succeed_exactly_once(self):
        rt = make_runtime(tiny_workload(reducers=2))
        rt.run()
        for t in rt.am.map_tasks + rt.am.reduce_tasks:
            assert t.state is TaskState.SUCCEEDED
            assert len(t.attempts) == 1

    def test_containers_released_after_job(self):
        rt = make_runtime()
        rt.run()
        for nm in rt.rm.node_managers.values():
            assert nm.used_mb == 0

    def test_deterministic_given_seed(self):
        r1 = make_runtime(seed=7).run()
        r2 = make_runtime(seed=7).run()
        assert r1.elapsed == r2.elapsed
        r3 = make_runtime(seed=8).run()
        # Different placement usually shifts timing at least slightly;
        # only assert it still completes.
        assert r3.success

    def test_job_time_scales_with_input(self):
        small = make_runtime(tiny_workload(input_mb=256)).run()
        big = make_runtime(tiny_workload(input_mb=2048)).run()
        assert big.elapsed > small.elapsed

    def test_counters_populated(self):
        res = make_runtime().run()
        assert res.counters["completed_maps"] == 8  # 512MB / 64MB blocks
        assert res.counters["committed_reduces"] == 2
        assert res.counters["failed_reduce_attempts"] == 0

    def test_reduce_phase_progress_bounds(self):
        rt = make_runtime()
        assert rt.am.reduce_phase_progress() == 0.0
        rt.run()
        assert rt.am.reduce_phase_progress() == 1.0


class TestProgressExactness:
    """The sampled ``reduce_progress`` and ``failed_reduce_attempts``
    series equal their oracles at every tick, bit for bit."""

    @staticmethod
    def _run_with_oracles(rt):
        rt.sampler.add_probe("oracle_reduce_progress",
                             lambda: _listed_reduce_progress(rt.am))
        rt.sampler.add_probe("oracle_failed_reduce_attempts",
                             lambda: rt.trace.count("attempt_failed", type="reduce"))
        res = rt.run()
        series = rt.trace.series
        progress = [(t, v.hex()) for t, v in series["reduce_progress"]]
        assert progress == [(t, v.hex()) for t, v in series["oracle_reduce_progress"]]
        assert series["failed_reduce_attempts"] == series["oracle_failed_reduce_attempts"]
        assert res.counters["failed_reduce_attempts"] == rt.trace.count(
            "attempt_failed", type="reduce")
        return res

    def test_reducer_node_crash(self):
        rt = make_runtime(tiny_workload(input_mb=1024, reducers=3, reduce_cpu=0.1), nodes=8)
        kill_node_at_progress(0.4, target="reducer").install(rt)
        res = self._run_with_oracles(rt)
        assert res.success
        assert res.counters["failed_reduce_attempts"] >= 1
        # Some tick saw a fraction that is not a whole number of tasks.
        assert any(v % (1 / 3) for _, v in rt.trace.series["reduce_progress"])

    def test_speculative_duplicates(self):
        """Ticks where a reduce task runs two attempts exercise the
        running maximum, not just the sum."""
        rt = make_runtime(tiny_workload(input_mb=1024, reducers=4, reduce_cpu=0.05),
                          speculation=SpeculationConfig(interval=2.0, min_runtime=5.0,
                                                        slowness_threshold=1.2))
        SlowNodeFault(node_index=0, at_time=2.0, disk_factor=0.05).install(rt)
        duplicated = []
        rt.sampler.add_probe("duplicated", lambda: duplicated.append(any(
            len(t.running_attempts()) > 1 for t in rt.am.reduce_tasks)) or 0)
        assert self._run_with_oracles(rt).success
        assert any(duplicated)

    def test_am_restart_keeps_the_failure_count(self):
        """Reduce failures before the AM crash stay counted after it: the
        count belongs to the job, not to one AM incarnation."""
        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1))
        kill_reduce_at_progress(0.3).install(rt)
        AMFault(at_progress=0.6).install(rt)
        res = self._run_with_oracles(rt)
        assert res.success
        assert res.counters["am_restarts"] == 1
        crash = rt.trace.first("am_crashed").time
        before = [v for t, v in rt.trace.series["failed_reduce_attempts"] if t < crash]
        after = [v for t, v in rt.trace.series["failed_reduce_attempts"] if t > crash]
        assert before[-1] >= 1
        assert after[-1] >= before[-1]
