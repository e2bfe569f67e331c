"""TrialRunner: parallel/serial determinism, memoization, fallbacks."""

import pytest

from repro.cluster.node import MB
from repro.experiments.common import (
    ExperimentConfig,
    averaged_job_time,
    run_benchmark_job,
    run_benchmark_trial,
)
from repro.hdfs.hdfs import HdfsConfig
from repro.runner import DeterminismError, TrialError, TrialRunner, spec_digest, trace_digest
from repro.yarn.rm import YarnConfig

from tests.conftest import make_runtime, small_cluster, tiny_workload


def _cfg(seed: int = 42) -> ExperimentConfig:
    return ExperimentConfig(
        cluster=small_cluster(seed=seed),
        yarn=YarnConfig(nm_liveness_timeout=20.0),
        hdfs=HdfsConfig(block_size=64 * MB, replication=2),
        seed=seed,
    )


def _square_trial(seed, offset=0):
    return {"value": seed * seed + offset}


def _factory_trial(seed, factory):
    return {"value": factory() + seed}


_FLAKY_CALLS = []


def _flaky_trial(seed):
    _FLAKY_CALLS.append(seed)
    return {"calls_so_far": len(_FLAKY_CALLS)}


def _exploding_trial(seed):
    if seed == 13:
        raise ValueError("boom")
    return {"value": seed}


class TestTraceDigest:
    def test_same_seed_same_digest(self):
        d1 = trace_digest(make_runtime(seed=7).run().trace)
        d2 = trace_digest(make_runtime(seed=7).run().trace)
        assert d1 == d2

    def test_different_seed_different_digest(self):
        d1 = trace_digest(make_runtime(seed=7).run().trace)
        d2 = trace_digest(make_runtime(seed=8).run().trace)
        assert d1 != d2


class TestTrialRunner:
    def test_serial_results_in_seed_order(self):
        results = TrialRunner(jobs=1, verify=False).run(
            "squares", _square_trial, [3, 1, 2])
        assert [r.seed for r in results] == [3, 1, 2]
        assert [r.payload["value"] for r in results] == [9, 1, 4]
        assert all(not r.cached for r in results)

    def test_parallel_matches_serial_bit_for_bit(self, monkeypatch):
        """The acceptance contract: REPRO_JOBS>1 and REPRO_JOBS=1
        produce identical per-seed payloads (including trace digests).
        Forced parallel: on a single-core host the runner would
        otherwise auto-select the serial path and test nothing."""
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        seeds = [42, 143, 244]
        kwargs = dict(workload=tiny_workload(), base_config=_cfg(), job_name="det")
        serial = TrialRunner(jobs=1, verify=False).run(
            "det", run_benchmark_trial, seeds, kwargs=kwargs)
        parallel = TrialRunner(jobs=2, verify=False).run(
            "det", run_benchmark_trial, seeds, kwargs=kwargs)
        assert [r.payload for r in serial] == [r.payload for r in parallel]
        assert all(len(r.payload["digest"]) == 64 for r in serial)

    def test_single_core_auto_serial(self, monkeypatch):
        """Without the override, a 1-core host quietly takes the serial
        path even when jobs > 1 (fan-out is strictly overhead there)."""
        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        monkeypatch.setattr("repro.runner.runner.os.cpu_count", lambda: 1)
        calls = []
        monkeypatch.setattr(
            "repro.runner.runner.TrialRunner._run_parallel",
            lambda self, *a, **k: calls.append(1) or {})
        results = TrialRunner(jobs=4, verify=False).run(
            "auto-serial", _square_trial, [1, 2, 3])
        assert calls == []  # pool never touched
        assert [r.payload["value"] for r in results] == [1, 4, 9]

    def test_raising_trial_names_its_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        with pytest.raises(TrialError, match=r"seed 13 raised ValueError: boom"):
            TrialRunner(jobs=2, verify=False).run(
                "explode", _exploding_trial, [11, 12, 13, 14])

    def test_unpicklable_spec_falls_back_to_serial(self):
        results = TrialRunner(jobs=4, verify=False).run(
            "fallback", _factory_trial, [1, 2, 3],
            kwargs={"factory": lambda: 100})
        assert [r.payload["value"] for r in results] == [101, 102, 103]

    def test_cache_round_trip(self, tmp_path):
        runner = TrialRunner(jobs=1, cache_dir=tmp_path, verify=False)
        first = runner.run("sq", _square_trial, [5, 6], kwargs={"offset": 1})
        second = runner.run("sq", _square_trial, [5, 6], kwargs={"offset": 1})
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        assert [r.payload for r in first] == [r.payload for r in second]

    def test_cache_keyed_by_kwargs_and_experiment(self, tmp_path):
        runner = TrialRunner(jobs=1, cache_dir=tmp_path, verify=False)
        runner.run("sq", _square_trial, [5], kwargs={"offset": 1})
        other_kwargs = runner.run("sq", _square_trial, [5], kwargs={"offset": 2})
        other_name = runner.run("sq2", _square_trial, [5], kwargs={"offset": 1})
        assert not other_kwargs[0].cached
        assert not other_name[0].cached

    def test_cache_keyed_by_implementation_mode(self, tmp_path, monkeypatch):
        """A cached payload must never leak across REPRO_KERNEL /
        REPRO_SCHEDULER selections: the mode environment is part of the
        memoization key, so swapping an implementation re-executes
        instead of replaying the other mode's trace digest."""
        for var in ("REPRO_KERNEL", "REPRO_SCHEDULER"):
            monkeypatch.delenv(var, raising=False)
        runner = TrialRunner(jobs=1, cache_dir=tmp_path, verify=False)

        baseline = runner.run("mode", _square_trial, [5])
        assert not baseline[0].cached
        assert runner.run("mode", _square_trial, [5])[0].cached

        for var, value in (("REPRO_KERNEL", "reference"),
                           ("REPRO_SCHEDULER", "reference"),
                           ("REPRO_SCHEDULER", "incremental"),
                           ("REPRO_SCHEDULER", "columnar")):
            monkeypatch.setenv(var, value)
            fresh = runner.run("mode", _square_trial, [5])
            assert not fresh[0].cached, f"{var}={value} leaked through the trial cache"
            assert runner.run("mode", _square_trial, [5])[0].cached
            monkeypatch.delenv(var)

        # Back to the baseline environment: the original entry is intact.
        assert runner.run("mode", _square_trial, [5])[0].cached

    def test_unnameable_spec_is_never_cached(self, tmp_path):
        runner = TrialRunner(jobs=1, cache_dir=tmp_path, verify=False)
        runner.run("lam", _factory_trial, [1], kwargs={"factory": lambda: 0})
        assert list(tmp_path.rglob("*.json")) == []
        assert spec_digest("lam", _factory_trial, {"factory": lambda: 0}) is None

    def test_verify_flags_nondeterministic_trials(self):
        _FLAKY_CALLS.clear()
        with pytest.raises(DeterminismError):
            TrialRunner(jobs=1, verify=True).run("flaky", _flaky_trial, [9])

    def test_verify_passes_deterministic_trials(self):
        results = TrialRunner(jobs=1, verify=True).run(
            "sq", _square_trial, [4])
        assert results[0].payload["value"] == 16


class TestResultStreaming:
    """The ``on_result`` hook durable campaign stores build on."""

    def test_on_result_sees_every_trial_as_it_completes(self, tmp_path):
        runner = TrialRunner(jobs=1, cache_dir=tmp_path, verify=False)
        runner.run("stream", _square_trial, [1, 2])
        seen = []
        runner.run("stream", _square_trial, [1, 2, 3],
                   on_result=lambda r: seen.append((r.seed, r.cached)))
        assert seen == [(1, True), (2, True), (3, False)]

    def test_cache_written_incrementally(self, tmp_path):
        """Each trial's cache entry lands as the trial completes, not
        at end of run — observed from inside the next trial."""
        runner = TrialRunner(jobs=1, cache_dir=tmp_path, verify=False)
        counts = []
        runner.run("incr", _square_trial, [1, 2, 3],
                   on_result=lambda r: counts.append(
                       len(list(tmp_path.rglob("*.json")))))
        assert counts == [1, 2, 3]

    def test_keyboard_interrupt_flushes_completed_and_tears_down_pool(
            self, monkeypatch):
        """Ctrl-C mid-fan-out: results that already completed are still
        delivered (and cached), pending futures are cancelled, and the
        persistent pool is shut down rather than left running until
        interpreter exit."""
        import repro.runner.runner as rr

        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        real_as_completed = rr.as_completed

        def interrupting(futures):
            it = real_as_completed(futures)
            yield next(it)  # deliver one chunk...
            raise KeyboardInterrupt  # ...then the user hits Ctrl-C

        monkeypatch.setattr(rr, "as_completed", interrupting)
        seen = []
        with pytest.raises(KeyboardInterrupt):
            TrialRunner(jobs=2, verify=False).run(
                "ki", _square_trial, [1, 2, 3, 4],
                on_result=lambda r: seen.append(r.seed))
        assert seen  # the completed chunk was flushed, not dropped
        assert len(seen) == len(set(seen))  # and flushed exactly once
        assert all(s in (1, 2, 3, 4) for s in seen)
        assert 2 not in rr._POOLS  # the pool was discarded, not leaked


class TestExperimentIntegration:
    def test_averaged_job_time_matches_direct_loop(self):
        """Routing through the runner must not change the numbers the
        paper figures are built from."""
        wl = tiny_workload()
        cfg = _cfg()
        via_runner = averaged_job_time(wl, "yarn", None, cfg, repeats=2,
                                       job_name="eq")
        direct = []
        for k in range(2):
            _, res = run_benchmark_job(wl, "yarn",
                                       config=cfg.with_seed(cfg.seed + 101 * k),
                                       job_name="eq-direct")
            direct.append(res.elapsed)
        assert via_runner == pytest.approx(sum(direct) / len(direct))

    def test_run_benchmark_trial_payload_shape(self):
        payload = run_benchmark_trial(42, workload=tiny_workload(),
                                      base_config=_cfg(), job_name="shape")
        assert payload["success"] is True
        assert payload["elapsed"] > 0
        assert payload["counters"]["committed_reduces"] == 2
        assert len(payload["digest"]) == 64
