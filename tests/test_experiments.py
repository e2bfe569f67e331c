"""Smoke/shape tests for the experiment drivers at reduced scale.

``repro verify`` checks these drivers' paper-shape claims at
full scale; here we verify the drivers' mechanics — row structure,
bookkeeping, paper-shape directionality — with small inputs so the
suite stays fast.
"""

import pytest

from repro.experiments import (
    ExperimentConfig,
    fig01_recovery_time,
    fig02_delayed_execution,
    fig03_temporal_amplification,
    fig08_alg_task_failure,
    fig09_sfm_node_failure,
    fig10_sfm_trace,
    fig12_log_frequency,
    fig14_concurrent_failures,
    fig15_sfm_plus_alg,
    format_table,
    table2_spatial_recovery,
)
from repro.experiments.common import run_benchmark_job
from repro.policies import make_policy
from repro.sim.core import SimulationError
from repro.workloads import terasort


SCALE = 0.1  # 10 GB terasort / 1 GB wordcount: seconds of wall time


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig()


class TestCommon:
    def test_make_policy_names(self):
        assert make_policy("yarn").name == "yarn"
        assert make_policy("alg").name == "alg"
        assert make_policy("sfm").name == "sfm"
        assert make_policy("alm").name == "alm"
        with pytest.raises(SimulationError):
            make_policy("hope")

    def test_run_benchmark_job_returns_runtime_and_result(self):
        rt, res = run_benchmark_job(terasort(2.0), "yarn")
        assert res.success
        assert rt.am.committed_reduces == 20

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.5" in out

    def test_experiment_config_with_seed(self, config):
        c2 = config.with_seed(99)
        assert c2.cluster.seed == 99
        assert c2.yarn is config.yarn


class TestDriverShapes:
    def test_fig01_rows(self):
        rows = fig01_recovery_time(map_failure_counts=(1, 4), scale=SCALE)
        kinds = [(r.failure, r.count) for r in rows]
        assert ("reducetask", 1) in kinds
        assert all(r.recovery_time >= 0 for r in rows)

    def test_fig02_degradation_computed(self):
        rows = fig02_delayed_execution(progress_points=(0.9,), scale=SCALE)
        assert {r.workload for r in rows} == {"terasort", "wordcount"}
        red = [r for r in rows if r.failure == "reducetask"]
        assert all(r.degradation_pct > -10 for r in red)

    def test_fig03_timeline_fields(self):
        res = fig03_temporal_amplification(scale=0.5)
        assert res.detect_time > res.crash_time
        assert 60 <= res.detection_delay <= 75
        assert res.progress_series  # sampled curve exists

    def test_fig08_rows_cover_grid(self):
        rows = fig08_alg_task_failure(progress_points=(0.8,), scale=SCALE)
        systems = {(r.workload, r.system) for r in rows}
        for wl in ("terasort", "wordcount", "secondarysort"):
            assert (wl, "failure-free") in systems
            assert (wl, "yarn") in systems
            assert (wl, "alg") in systems

    def test_fig09_sfm_beats_yarn_on_node_failure(self):
        rows = fig09_sfm_node_failure(progress_points=(0.5,), scale=0.3)
        by = {(r.workload, r.system): r.job_time for r in rows if r.progress >= 0}
        assert by[("wordcount", "sfm")] <= by[("wordcount", "yarn")]

    def test_fig10_combined(self):
        res = fig10_sfm_trace(scale=0.5)
        assert res.sfm_eliminates_repeat_failures
        assert res.yarn.repeat_failure_times

    def test_fig12_tick_counts_decrease_with_interval(self):
        rows = fig12_log_frequency(frequencies=(5.0, 20.0), input_gb=20.0, scale=SCALE)
        assert rows[0].log_ticks >= rows[1].log_ticks

    def test_fig14_rows(self):
        rows = fig14_concurrent_failures(
            per_reducer_gb=(1.0,), failure_counts=(2,), scale=0.5,
            num_reducers=4)
        assert {r.system for r in rows} == {"yarn", "sfm"}
        assert all(r.recovery_time >= 0 for r in rows)

    def test_fig15_rows(self):
        rows = fig15_sfm_plus_alg(scale=0.2)
        assert {r.system for r in rows} == {"sfm", "alm"}

    def test_table2_sfm_never_amplifies(self):
        rows = table2_spatial_recovery(points=(0.2,), scale=0.3)
        sfm = [r for r in rows if r.system == "SFM"]
        assert all(r.additional_failures == 0 for r in sfm)
