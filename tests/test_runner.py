"""TrialRunner: parallel/serial determinism, memoization in the trial
store, failures."""

import sqlite3
from functools import partial

import pytest

from repro.campaign import CampaignStore
from repro.cluster.node import MB
from repro.experiments.common import (
    ExperimentConfig,
    averaged_job_time,
    run_benchmark_job,
    run_benchmark_trial,
)
from repro.hdfs.hdfs import HdfsConfig
from repro.runner import TrialError, TrialRunner, spec_digest
from repro.yarn.rm import YarnConfig

from tests.conftest import make_runtime, small_cluster, tiny_workload


def _cfg(seed: int = 42) -> ExperimentConfig:
    return ExperimentConfig(
        cluster=small_cluster(seed=seed),
        yarn=YarnConfig(nm_liveness_timeout=20.0),
        hdfs=HdfsConfig(block_size=64 * MB, replication=2),
    )


def _square_trial(seed, offset=0):
    return {"value": seed * seed + offset}


def _factory_trial(seed, factory):
    return {"value": factory() + seed}


def _exploding_trial(seed):
    if seed == 13:
        raise ValueError("boom")
    return {"value": seed}


def _stored_rows(db) -> int:
    conn = sqlite3.connect(db)
    try:
        return conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0]
    finally:
        conn.close()


def _counting_trial(seed, db):
    """Reports how many trials the store at ``db`` held as it started."""
    return {"rows_before": _stored_rows(db)}


class TestTraceDigest:
    def test_same_seed_same_digest(self):
        d1 = make_runtime(seed=7).run().trace.digest()
        d2 = make_runtime(seed=7).run().trace.digest()
        assert d1 == d2

    def test_different_seed_different_digest(self):
        d1 = make_runtime(seed=7).run().trace.digest()
        d2 = make_runtime(seed=8).run().trace.digest()
        assert d1 != d2


class TestTrialRunner:
    def test_serial_results_in_seed_order(self):
        results = TrialRunner(jobs=1).run(
            "squares", _square_trial, [3, 1, 2])
        assert [r.seed for r in results] == [3, 1, 2]
        assert [r.payload["value"] for r in results] == [9, 1, 4]
        assert all(not r.cached for r in results)

    def test_parallel_matches_serial_bit_for_bit(self, monkeypatch):
        """The acceptance contract: jobs>1 and jobs=1 produce
        identical per-seed payloads (including trace digests).
        Two CPUs reported: on a single-core host the runner would
        otherwise auto-select the serial path and test nothing."""
        monkeypatch.setattr("repro.runner.runner.os.cpu_count", lambda: 2)
        seeds = [42, 143, 244]
        kwargs = dict(workload=tiny_workload(), base_config=_cfg(), job_name="det")
        serial = TrialRunner(jobs=1).run(
            "det", run_benchmark_trial, seeds, kwargs=kwargs)
        parallel = TrialRunner(jobs=2).run(
            "det", run_benchmark_trial, seeds, kwargs=kwargs)
        assert [r.payload for r in serial] == [r.payload for r in parallel]
        assert all(len(r.payload["digest"]) == 64 for r in serial)

    def test_single_core_auto_serial(self, monkeypatch):
        """A 1-core host quietly takes the serial path even when
        jobs > 1 (fan-out is strictly overhead there)."""
        monkeypatch.setattr("repro.runner.runner.os.cpu_count", lambda: 1)
        calls = []
        monkeypatch.setattr(
            "repro.runner.runner.TrialRunner._run_parallel",
            lambda self, *a, **k: calls.append(1) or {})
        results = TrialRunner(jobs=4).run(
            "auto-serial", _square_trial, [1, 2, 3])
        assert calls == []  # pool never touched
        assert [r.payload["value"] for r in results] == [1, 4, 9]

    def test_raising_trial_names_its_seed(self, monkeypatch):
        monkeypatch.setattr("repro.runner.runner.os.cpu_count", lambda: 2)
        with pytest.raises(TrialError, match=r"seed 13 raised ValueError: boom"):
            TrialRunner(jobs=2).run(
                "explode", _exploding_trial, [11, 12, 13, 14])

    def test_unpicklable_spec_with_jobs_is_a_trial_error(self, monkeypatch):
        """Asking for worker processes with a spec that cannot cross the
        process boundary fails naming the seeds, instead of quietly
        running serially."""
        monkeypatch.setattr("repro.runner.runner.os.cpu_count", lambda: 2)
        with pytest.raises(TrialError, match=r"unpicklable: seed block (\[1, 2\]|\[3\]) failed "
                                             r"with \w+: Can't pickle"):
            TrialRunner(jobs=2).run("unpicklable", _factory_trial, [1, 2, 3],
                                    kwargs={"factory": lambda: 100})

    def test_cache_round_trip(self, tmp_path):
        runner = TrialRunner(jobs=1, store=tmp_path / "trials.db")
        first = runner.run("sq", _square_trial, [5, 6], kwargs={"offset": 1})
        second = runner.run("sq", _square_trial, [5, 6], kwargs={"offset": 1})
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        assert [r.payload for r in first] == [r.payload for r in second]

    def test_cache_keyed_by_kwargs_and_experiment(self, tmp_path):
        runner = TrialRunner(jobs=1, store=tmp_path / "trials.db")
        runner.run("sq", _square_trial, [5], kwargs={"offset": 1})
        other_kwargs = runner.run("sq", _square_trial, [5], kwargs={"offset": 2})
        other_name = runner.run("sq2", _square_trial, [5], kwargs={"offset": 1})
        assert not other_kwargs[0].cached
        assert not other_name[0].cached

    def test_cache_keyed_by_implementation_mode(self, tmp_path, monkeypatch):
        """A cached payload must never leak across REPRO_SCHEDULER
        selections: the mode environment is part of the memoization key,
        so swapping an implementation re-executes instead of replaying
        the other mode's trace digest. The retired REPRO_KERNEL is read
        by nothing, so it does not split the cache."""
        for var in ("REPRO_KERNEL", "REPRO_SCHEDULER"):
            monkeypatch.delenv(var, raising=False)
        runner = TrialRunner(jobs=1, store=tmp_path / "trials.db")

        baseline = runner.run("mode", _square_trial, [5])
        assert not baseline[0].cached
        assert runner.run("mode", _square_trial, [5])[0].cached

        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert runner.run("mode", _square_trial, [5])[0].cached
        monkeypatch.delenv("REPRO_KERNEL")

        for var, value in (("REPRO_SCHEDULER", "reference"),
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
        runner = TrialRunner(jobs=1, store=tmp_path / "trials.db")
        runner.run("lam", _factory_trial, [1], kwargs={"factory": lambda: 0})
        assert not (tmp_path / "trials.db").exists()  # the store was never opened
        assert spec_digest("lam", _factory_trial, {"factory": lambda: 0}) is None

    def test_partials_keyed_by_their_arguments(self):
        """A ``functools.partial`` is named by its repr, so partials with
        different arguments never share a cache entry; one wrapping a
        function (whose repr embeds an address) is unnameable."""
        def digest(factory):
            return spec_digest("p", _factory_trial, {"factory": factory})

        assert digest(partial(int, 1)) != digest(partial(int, 2))
        assert digest(partial(int, 1)) == digest(partial(int, 1))
        assert digest(partial(_square_trial, 1)) is None

    def test_unstorable_payload_names_experiment_and_seed(self, tmp_path):
        runner = TrialRunner(jobs=1, store=tmp_path / "trials.db")
        with pytest.raises(TrialError, match=r"raw: seed 3 payload cannot be stored"):
            runner.run("raw", _factory_trial, [3],
                       kwargs={"factory": partial(complex, 1)})  # JSON has no complex



class TestResultStreaming:
    """Trials reach the store as they complete, not at end of run."""

    def test_cache_written_incrementally(self, tmp_path):
        """Each trial's store row lands as the trial completes, not at
        end of run — observed from inside the next trial."""
        db = tmp_path / "trials.db"
        results = TrialRunner(jobs=1, store=db).run(
            "incr", _counting_trial, [1, 2, 3], kwargs={"db": str(db)})
        assert [r.payload["rows_before"] for r in results] == [0, 1, 2]
        assert _stored_rows(db) == 3

    def test_keyboard_interrupt_flushes_completed_and_tears_down_pool(
            self, monkeypatch, tmp_path):
        """Ctrl-C mid-fan-out: results that already completed are still
        recorded in the store, pending futures are cancelled, and the
        persistent pool is shut down rather than left running until
        interpreter exit."""
        import repro.runner.runner as rr

        monkeypatch.setattr("repro.runner.runner.os.cpu_count", lambda: 2)
        real_as_completed = rr.as_completed

        def interrupting(futures):
            it = real_as_completed(futures)
            yield next(it)  # deliver one chunk...
            raise KeyboardInterrupt  # ...then the user hits Ctrl-C

        monkeypatch.setattr(rr, "as_completed", interrupting)
        db = tmp_path / "trials.db"
        with pytest.raises(KeyboardInterrupt):
            TrialRunner(jobs=2, store=db).run(
                "ki", _square_trial, [1, 2, 3, 4])
        key = spec_digest("ki", _square_trial, {})
        with CampaignStore(db) as store:
            seen = store.completed_seeds(key)
            assert seen  # the completed chunk was flushed, not dropped
            assert store.max_run_count(key) == 1  # and flushed exactly once
        assert seen <= {1, 2, 3, 4}
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
                                       config=cfg.with_seed(cfg.cluster.seed + 101 * k),
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
