"""The durable campaign layer: store semantics, ``run_spec``'s fifo
waves, the campaign kinds, and the crash-durability primitives (atomic
writes, torn store recovery, corrupt-store quarantine)."""

import os

import pytest

from repro.campaign import (
    CampaignStore,
    StoreError,
    aggregate_chaos,
    open_store,
    run_spec,
)
from repro.campaign import plans
from repro.faults.chaos import reproducer_path, run_campaign
from repro.runner import TrialRunner, atomic_write_text, spec_digest

#: Campaign ids written by earlier releases: a store on disk resumes
#: only while its spec still maps to the same id.
PINNED_IDS = [
    ({"kind": "chaos", "seed": 7, "trials": 50, "scale": 1.0},
     "c1994ad06d9d60dc536d745cee89c1404f168a7b980fa8a8a3a7533d16cf85aa"),
    ({"kind": "chaos", "seed": 5, "trials": 18, "scale": 0.5, "am_faults": True,
      "policies": ["yarn", "alm"], "hard_timeout": 5.0},
     "750ff30893447573aa2a403aeee2148d51bde9fcfd340208fbe4e84243e286f1"),
]


def _toy_trial(seed, offset=0):
    return {"value": seed * seed + offset, "success": True, "digest": f"d{seed}"}


def _toy_kind(spec):
    """A campaign kind running ``_toy_trial`` over ``spec["seeds"]`` in
    the given order."""
    return spec, spec["experiment"], _toy_trial, {}, list(spec["seeds"])


@pytest.fixture
def toy_kind(monkeypatch):
    monkeypatch.setitem(plans.KINDS, "toy", _toy_kind)


def _toy_spec(seeds, experiment="toy"):
    return {"kind": "toy", "experiment": experiment, "seeds": list(seeds)}


def _family_id(spec):
    _stored, experiment, fn, kwargs, _seeds = plans.KINDS[spec["kind"]](spec)
    return spec_digest(experiment, fn, kwargs)


def _completion_order(store, campaign_id):
    """Seeds in the order they were recorded (sqlite rowid order)."""
    rows = store._conn.execute(
        "SELECT seed FROM trials WHERE campaign_id = ? ORDER BY rowid",
        (campaign_id,)).fetchall()
    return [r[0] for r in rows]


class TestStore:
    def test_register_and_lookup_by_prefix(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            store.register("a" * 64, {"kind": "toy", "seeds": [1]})
            row = store.campaign("aaaa")
            assert row["campaign_id"] == "a" * 64
            assert row["status"] == "running"
            with pytest.raises(StoreError):
                store.campaign("ffff")

    def test_ambiguous_prefix_rejected(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            store.register("ab" + "0" * 62, {"kind": "toy"})
            store.register("ab" + "1" * 62, {"kind": "toy"})
            with pytest.raises(StoreError, match="ambiguous"):
                store.campaign("ab")

    def test_record_trial_upsert_counts_runs(self):
        with CampaignStore() as store:
            store.register("c1", {})
            store.record_trial("c1", 5, {"digest": "x"}, wall_seconds=0.1)
            assert store.max_run_count("c1") == 1
            store.record_trial("c1", 5, {"digest": "x"}, wall_seconds=0.2)
            assert store.max_run_count("c1") == 1 + 1
            assert store.completed_seeds("c1") == {5}
            assert store.counts("c1")["done"] == 1

    def test_payloads_and_digests_in_seed_order(self):
        with CampaignStore() as store:
            store.register("c1", {})
            for seed in (3, 1, 2):
                store.record_trial("c1", seed, {"digest": f"d{seed}", "seed": seed})
            rows = list(store.payloads("c1"))
            assert [s for s, _ in rows] == [1, 2, 3]
            assert [p["digest"] for _, p in rows] == ["d1", "d2", "d3"]

    def test_latest_incomplete_and_status(self):
        with CampaignStore() as store:
            store.register("c1", {"kind": "toy"})
            store.register("c2", {"kind": "toy"})
            store.mark_status("c2", "complete")
            assert store.latest_incomplete()["campaign_id"] == "c1"
            store.mark_status("c1", "complete")
            assert store.latest_incomplete() is None

    def test_reregister_reopens_completed_campaign(self):
        with CampaignStore() as store:
            store.register("c1", {"trials": 5})
            store.mark_status("c1", "complete", error=None)
            store.register("c1", {"trials": 9})
            row = store.campaign("c1")
            assert row["status"] == "running"
            assert row["spec"] == {"trials": 9}

    def test_corrupt_store_quarantined(self, tmp_path):
        path = tmp_path / "c.db"
        path.write_bytes(b"this is not a sqlite database, not even close" * 100)
        with CampaignStore(path) as store:
            assert store.quarantined is not None
            assert os.path.exists(store.quarantined)
            # ... and the fresh store at the original path works.
            store.register("c1", {})
            store.record_trial("c1", 1, {"digest": "d"})
            assert store.completed_seeds("c1") == {1}

    def test_open_store_borrows_or_opens(self, tmp_path):
        with CampaignStore() as store:
            with open_store(store) as borrowed:
                assert borrowed is store
            store.register("c1", {})  # a borrowed store is left open
        with open_store(tmp_path / "new" / "c.db") as opened:  # parent created
            opened.register("c1", {})
        with CampaignStore(tmp_path / "new" / "c.db") as reopened:
            assert reopened.campaign("c1")["status"] == "running"
        with open_store() as ephemeral:
            assert ephemeral.path == ":memory:"


class TestAtomicWrite:
    def test_write_and_overwrite(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        # No temp files left behind in the directory.
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_torn_cache_file_recovered(self, tmp_path):
        """A torn trial store (the runner's cache file) is quarantined,
        the trial re-runs, and the entry is rewritten valid —
        resume-through-cache survives damage to the file."""
        db = tmp_path / "trials.db"
        runner = TrialRunner(jobs=1, store=db)
        [r1] = runner.run("torn", _toy_trial, [4])
        db.write_bytes(db.read_bytes()[:100])  # tear it
        for suffix in ("-wal", "-shm"):
            (tmp_path / f"trials.db{suffix}").unlink(missing_ok=True)
        [r2] = runner.run("torn", _toy_trial, [4])
        assert not r2.cached  # torn store quarantined, trial re-ran
        assert r2.payload == r1.payload
        assert list(tmp_path.glob("trials.db.corrupt-*"))
        [r3] = runner.run("torn", _toy_trial, [4])
        assert r3.cached  # rewritten entry is valid again


class TestScheduler:
    """``run_spec``: fifo waves through a store-backed runner."""

    def test_fifo_runs_in_submission_order(self, toy_kind):
        with CampaignStore() as store:
            stats = run_spec(_toy_spec([5, 3, 9, 1]), store)
            assert _completion_order(store, stats["campaign_id"]) == [5, 3, 9, 1]

    def test_runner_cache_hits_are_campaign_skips(self, tmp_path, toy_kind):
        """The campaign and the trial runner share one store: trials a
        runner recorded under the campaign's key are skipped, not re-run."""
        db = tmp_path / "trials.db"
        TrialRunner(jobs=1, store=db).run("toy", _toy_trial, [1, 2])
        with CampaignStore(db) as store:
            summary = run_spec(_toy_spec([1, 2, 3]), store)
            assert (summary["executed"], summary["skipped"]) == (1, 2)
            assert store.max_run_count(summary["campaign_id"]) == 1

    def test_resume_skips_completed(self, toy_kind):
        with CampaignStore() as store:
            first = run_spec(_toy_spec(range(6)), store)
            again = run_spec(_toy_spec(range(6)), store)
            assert (first["executed"], first["skipped"]) == (6, 0)
            assert (again["executed"], again["skipped"]) == (0, 6)
            assert store.max_run_count(first["campaign_id"]) == 1
            assert store.campaign(first["campaign_id"])["status"] == "complete"

    def test_raising_trial_checkpoints_error_and_completed_work(self, monkeypatch):
        def _boom(seed):
            if seed == 2:
                raise ValueError("boom")
            return {"seed": seed}
        _boom.__module__ = _toy_trial.__module__
        _boom.__qualname__ = "unique_boom_fn"
        monkeypatch.setitem(plans.KINDS, "boom",
                            lambda spec: (spec, "boom", _boom, {}, [1, 2, 3]))
        with CampaignStore() as store:
            with pytest.raises(Exception, match="boom"):
                run_spec({"kind": "boom"}, store)
            [row] = store.campaigns()
            assert 1 in store.completed_seeds(row["campaign_id"])  # pre-failure work kept
            assert row["status"] == "running"
            assert "boom" in row["last_error"]


_RETIRED = "unknown campaign kind 'verify-matrix'; choose from ['chaos']"


class TestPlans:
    def test_unknown_kind_rejected(self):
        with CampaignStore() as store:
            with pytest.raises(StoreError, match="kind"):
                run_spec({"kind": "nope"}, store)
            assert store.campaigns() == []

    def test_chaos_plan_rebuilds_from_stored_spec(self):
        with CampaignStore() as store:
            stats = run_spec({"kind": "chaos", "seed": 3, "trials": 2, "scale": 0.25},
                             store)
            [row] = store.campaigns()
            again = run_spec(row["spec"], store)
        assert row["spec"] == {"kind": "chaos", "seed": 3, "trials": 2, "scale": 0.25,
                               "am_faults": False}
        assert again["campaign_id"] == stats["campaign_id"]
        assert (again["executed"], again["skipped"]) == (0, 2)

    @pytest.mark.parametrize("spec, campaign_id", PINNED_IDS,
                             ids=["chaos", "chaos-options"])
    def test_campaign_ids_are_pinned(self, spec, campaign_id):
        stored = plans.KINDS[spec["kind"]](spec)[0]
        assert _family_id(spec) == campaign_id
        assert _family_id(stored) == campaign_id

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "chaos", "trials": 2}, "missing required key(s): seed"),
        ({"kind": "chaos", "seed": "x", "trials": 2}, "bad chaos campaign spec"),
        ({"kind": "chaos", "seed": 1, "trials": 0}, "trials >= 1"),
        ({"kind": "chaos", "seed": 1, "trials": 2, "policies": ["alm", "nosuch"]},
         "unknown policy 'nosuch'"),
        # The verify-matrix kind is retired: every spec of that kind, well
        # formed or not, is rejected as an unknown kind before any row check.
        ({"kind": "verify-matrix"}, _RETIRED),
        ({"kind": "verify-matrix", "jobs": [["nosuch", "default", "default", ""]]},
         _RETIRED),
        ({"kind": "verify-matrix", "jobs": [["clean-terasort-yarn", "ref", "default", ""]]},
         _RETIRED),
        ({"kind": "verify-matrix",
          "jobs": [["clean-terasort-yarn", "default", "Columnar", ""]]},
         _RETIRED),
        ({"kind": "verify-matrix", "jobs": [["clean-terasort-yarn", "default"]]},
         _RETIRED),
        ({"kind": "verify-matrix", "jobs": [["clean-terasort-yarn", "default", "default", ""]]},
         _RETIRED),
    ], ids=["chaos-no-seed", "chaos-bad-seed", "chaos-no-trials", "chaos-policy",
            "matrix-no-jobs", "matrix-scenario", "matrix-kernel", "matrix-scheduler",
            "matrix-row", "retired-kind"])
    def test_bad_spec_rejected_before_register(self, spec, message):
        with CampaignStore() as store:
            with pytest.raises(StoreError) as exc:
                run_spec(spec, store)
            assert message in str(exc.value)
            assert store.campaigns() == []

    def test_aggregate_chaos_streams_counters(self):
        payloads = [
            (0, {"spec": {"index": 0, "policy": "yarn",
                          "faults": [{"kind": "task-oom"}]},
                 "success": True, "violations": [], "digest": "d0"}),
            (1, {"spec": {"index": 1, "policy": "alg",
                          "faults": [{"kind": "rack"}, {"kind": "task-oom"}]},
                 "success": False, "violations": ["bad"], "digest": "d1"}),
        ]
        agg = aggregate_chaos(iter(payloads))
        assert agg["by_policy"] == {"yarn": 1, "alg": 1}
        assert agg["by_kind"] == {"task-oom": 2, "rack": 1}
        assert agg["jobs_failed"] == 1
        assert agg["violating_trials"] == [1]
        assert agg["digests"] == ["d0", "d1"]


class TestReproducerPath:
    def test_distinct_per_scale_and_campaign(self, tmp_path):
        """Same seed, different scale (or campaign) must never collide
        in a shared --out directory."""
        a = reproducer_path(tmp_path, 7, 1.0, "aabbccdd" * 8, 3)
        b = reproducer_path(tmp_path, 7, 0.5, "aabbccdd" * 8, 3)
        c = reproducer_path(tmp_path, 7, 1.0, "eeffeeff" * 8, 3)
        assert len({a, b, c}) == 3
        assert "s7" in a.name and "x0.5" in b.name and "t3" in a.name


class TestChaosCampaignOnStore:
    def test_one_shot_summary_shape_unchanged(self):
        summary = run_campaign({"kind": "chaos", "seed": 7, "trials": 4, "scale": 0.25},
                               minimize=False, echo=lambda *_: None)
        assert summary["trials"] == 4
        assert summary["executed"] == 4 and summary["skipped"] == 0
        assert len(summary["digests"]) == 4
        assert sum(summary["by_policy"].values()) == 4

    def test_parallel_campaign_matches_serial(self, monkeypatch):
        """``jobs`` is not part of the campaign: fanned out or serial, a
        smoke spec gets one campaign id and one digest per trial."""
        monkeypatch.setattr("repro.runner.runner.os.cpu_count", lambda: 2)
        spec = {"kind": "chaos", "seed": 7, "trials": 6, "scale": 0.5}
        serial, parallel = (run_campaign(spec, minimize=False, echo=lambda *_: None,
                                         jobs=jobs) for jobs in (1, 2))
        assert parallel["campaign_id"] == serial["campaign_id"]
        assert parallel["digests"] == serial["digests"]
        assert len(set(serial["digests"])) == 6

    def test_durable_rerun_executes_nothing(self, tmp_path):
        db = tmp_path / "c.db"
        spec = {"kind": "chaos", "seed": 7, "trials": 4, "scale": 0.25}
        kw = dict(store=db, minimize=False, echo=lambda *_: None)
        first = run_campaign(spec, **kw)
        second = run_campaign(spec, **kw)
        assert second["executed"] == 0 and second["skipped"] == 4
        assert second["digests"] == first["digests"]
        with CampaignStore(db) as store:
            assert store.max_run_count(first["campaign_id"]) == 1

    def test_extending_trials_reuses_prefix(self, tmp_path):
        db = tmp_path / "c.db"
        spec = {"kind": "chaos", "seed": 7, "scale": 0.25}
        kw = dict(store=db, minimize=False, echo=lambda *_: None)
        run_campaign(dict(spec, trials=3), **kw)
        extended = run_campaign(dict(spec, trials=5), **kw)
        assert extended["skipped"] == 3 and extended["executed"] == 2
