"""Crash/resume durability: SIGKILL a campaign mid-run in a subprocess,
resume it, and prove the result is bit-identical to an uninterrupted
run with zero re-executed trials — the harness-level version of the
paper's no-restart-from-scratch recovery contract."""

import os
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import CampaignStore
from repro.faults.chaos import run_campaign

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _chaos(seed: int, trials: int, scale: float) -> dict:
    return {"kind": "chaos", "seed": seed, "trials": trials, "scale": scale}


def _spawn_campaign(store: Path, seed: int, trials: int, scale: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "chaos",
         "--store", str(store), "--seed", str(seed),
         "--trials", str(trials), "--scale", str(scale),
         "--no-minimize", "--out", str(store.parent / "reports")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _trials_done(store: Path) -> int:
    try:
        conn = sqlite3.connect(store, timeout=5.0)
        try:
            return conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0]
        finally:
            conn.close()
    except sqlite3.Error:
        return 0


def _kill_at(proc, store: Path, threshold: int, deadline: float = 120.0) -> int:
    """SIGKILL ``proc`` once the store holds >= threshold trials;
    returns the observed count at the kill."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        done = _trials_done(store)
        if done >= threshold:
            proc.kill()
            proc.wait()
            return done
        if proc.poll() is not None:
            return _trials_done(store)
        time.sleep(0.02)
    proc.kill()
    proc.wait()
    raise AssertionError(f"campaign never reached {threshold} trials")


def _kill_resume_roundtrip(tmp_path, seed: int, trials: int, scale: float,
                           threshold: int) -> None:
    store_path = tmp_path / "campaign.db"
    proc = _spawn_campaign(store_path, seed, trials, scale)
    done_at_kill = _kill_at(proc, store_path, threshold)
    if done_at_kill >= trials:
        pytest.skip("campaign finished before the kill landed")
    assert 0 < done_at_kill < trials

    resumed = run_campaign(_chaos(seed, trials, scale), store=store_path,
                           minimize=False, echo=lambda *_: None)
    # Exactly the missing trials ran; nothing was re-executed. (The
    # store may have gained a few more rows between the count read and
    # the SIGKILL landing — run_count is the authoritative check.)
    assert resumed["skipped"] >= done_at_kill
    assert resumed["executed"] == trials - resumed["skipped"]
    with CampaignStore(store_path) as store:
        assert store.max_run_count(resumed["campaign_id"]) == 1
        assert store.campaign(resumed["campaign_id"])["status"] == "complete"

    fresh = run_campaign(_chaos(seed, trials, scale), minimize=False,
                         echo=lambda *_: None)
    assert resumed["digests"] == fresh["digests"]
    assert len(resumed["digests"]) == trials


class TestKillResume:
    def test_sigkill_mid_campaign_resumes_bit_identical(self, tmp_path):
        _kill_resume_roundtrip(tmp_path, seed=11, trials=60, scale=0.25,
                               threshold=8)

    @pytest.mark.slow
    def test_1000_trial_campaign_sigkill_resume(self, tmp_path):
        """The acceptance-criteria scale: a 1000-trial chaos campaign
        killed around the midpoint resumes losing nothing."""
        _kill_resume_roundtrip(tmp_path, seed=7, trials=1000, scale=0.25,
                               threshold=500)


class TestTornStore:
    def test_corrupt_store_quarantined_and_rebuilt(self, tmp_path):
        """A store file torn beyond sqlite's own crash-safety (disk
        fault, truncation, an errant writer) is quarantined and the
        campaign re-runs from scratch — degraded, never wedged."""
        db = tmp_path / "c.db"
        kw = dict(minimize=False, echo=lambda *_: None)
        first = run_campaign(_chaos(7, 4, 0.25), store=db, **kw)
        db.write_bytes(b"\x00garbage" * 4096)  # tear the whole file
        for suffix in ("-wal", "-shm"):
            Path(str(db) + suffix).unlink(missing_ok=True)

        resumed = run_campaign(_chaos(7, 4, 0.25), store=db, **kw)
        assert resumed["executed"] == 4  # nothing salvageable: full re-run
        assert resumed["digests"] == first["digests"]
        assert list(tmp_path.glob("c.db.corrupt-*"))  # original preserved

    def test_sigkill_never_corrupts_the_store(self, tmp_path):
        """The WAL store after a SIGKILL opens clean — no quarantine,
        all recorded rows intact and parseable."""
        store_path = tmp_path / "campaign.db"
        proc = _spawn_campaign(store_path, seed=3, trials=60, scale=0.25)
        done = _kill_at(proc, store_path, threshold=5)
        with CampaignStore(store_path) as store:
            assert store.quarantined is None
            [row] = store.campaigns()
            payloads = dict(store.payloads(row["campaign_id"]))
            assert len(payloads) >= min(done, 5)
            for payload in payloads.values():
                assert "digest" in payload and "spec" in payload


class TestCampaignCLI:
    def test_resume_status_export_flow(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "c.db")
        assert main(["chaos", "--store", db, "--seed", "7", "--trials", "3",
                     "--scale", "0.25", "--out", str(tmp_path / "reports")]) == 0
        assert "campaign id: " in capsys.readouterr().out
        assert main(["campaign", "status", "--store", db]) == 0
        out = capsys.readouterr().out
        assert "3/3 trials" in out and "complete" in out
        # Nothing incomplete: resume refuses politely.
        assert main(["campaign", "resume", "--store", db]) == 1
        export = tmp_path / "export.json"
        assert main(["campaign", "export", "--store", db,
                     "--out", str(export)]) == 0
        import json

        doc = json.loads(export.read_text())
        assert doc["counts"]["done"] == 3
        assert len(doc["trials"]) == 3
        assert doc["summary"]["violations"] == 0

    def test_submit_spec_keeps_chaos_timeouts(self, tmp_path, capsys):
        """A chaos ``--spec`` file's watchdog ceilings reach the stored
        spec and every trial; without them the spec stays key-free so
        existing campaign ids do not change."""
        import json

        from repro.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "kind": "chaos", "seed": 3, "trials": 2, "scale": 0.25,
            "hard_timeout": 5.0, "stall_timeout": 1000.0}))
        db = str(tmp_path / "c.db")
        # The 5 s ceiling trips the termination invariant: exit status 1.
        assert main(["campaign", "submit", "--store", db, "--spec", str(spec_file),
                     "--out", str(tmp_path / "reports")]) == 1
        with CampaignStore(db) as store:
            [row] = store.campaigns()
            assert row["spec"]["hard_timeout"] == 5.0
            assert row["spec"]["stall_timeout"] == 1000.0
            payloads = dict(store.payloads(row["campaign_id"]))
        assert len(payloads) == 2
        for payload in payloads.values():
            assert payload["spec"]["hard_timeout"] == 5.0
            assert payload["spec"]["stall_timeout"] == 1000.0
        # Trial 0 needs 254 simulated seconds: the 5 s ceiling stops it.
        assert payloads[0]["success"] is False

        plain = str(tmp_path / "plain.db")
        spec_file.write_text(json.dumps({
            "kind": "chaos", "seed": 3, "trials": 1, "scale": 0.25}))
        assert main(["campaign", "submit", "--store", plain, "--spec", str(spec_file),
                     "--out", str(tmp_path / "reports")]) == 0
        with CampaignStore(plain) as store:
            [row] = store.campaigns()
        assert "hard_timeout" not in row["spec"]
        assert "stall_timeout" not in row["spec"]

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read campaign spec {path}: [Errno 2] No such file"),
        ("not json", "cannot read campaign spec {path}: Expecting value"),
        ("[1]", "{path} is not a campaign spec (expected a JSON object)"),
        ('{"kind": "chaos", "trials": 2}',
         "chaos campaign spec is missing required key(s): seed"),
        ('{"kind": "chaos", "seed": 1, "trials": 2, "policies": ["nosuch"]}',
         "unknown policy 'nosuch'; registered: yarn, "),
        ('{"kind": "verify-matrix", "jobs": [["nosuch", "default", "default", ""]]}',
         "unknown campaign kind 'verify-matrix'"),
        ('{"kind": "verify-matrix", "jobs": [["clean-terasort-yarn", "default", "default", ""]]}',
         "unknown campaign kind 'verify-matrix'"),
    ], ids=["missing", "not-json", "not-object", "chaos-no-seed", "unregistered-policy",
            "unknown-scenario", "retired-kind"])
    def test_bad_submit_spec_is_a_usage_error(self, content, message, tmp_path, capsys):
        """Exit 1 means "violations found": a spec that cannot run exits 2
        with one error line and registers no campaign, so ``resume`` does
        not pick it up."""
        from repro.cli import main

        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        db = tmp_path / "c.db"
        assert main(["campaign", "submit", "--store", str(db), "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("repro campaign submit: error: "
                               + message.format(path=path))
        assert captured.out == ""
        if db.exists():
            with CampaignStore(db) as store:
                assert store.campaigns() == []
            assert main(["campaign", "resume", "--store", str(db)]) == 1

    def test_retired_kind_row_lists_and_exports_but_does_not_resume(self, tmp_path,
                                                                    capsys):
        """A store may hold a ``verify-matrix`` campaign from before that
        kind was retired: status and export still show its kind and done
        count (no chaos summary); resuming it is a usage error."""
        import json

        from repro.cli import main

        db = tmp_path / "c.db"
        cid = "9bce82571149" + "0" * 52
        with CampaignStore(db) as store:
            store.register(cid, {"kind": "verify-matrix",
                                 "jobs": [["clean-terasort-yarn", "default", "default", ""],
                                          ["clean-terasort-yarn", "default", "reference", ""]]})
            store.record_trial(cid, 0, {"scenario": "clean-terasort-yarn", "digest": "d0",
                                        "success": True,
                                        "combo": ["default", "default"]})
        assert main(["campaign", "status", "--store", str(db)]) == 0
        assert capsys.readouterr().out == f"{cid[:12]}  verify-matrix 1 trials  running\n"

        export = tmp_path / "export.json"
        assert main(["campaign", "export", "--store", str(db), "--out", str(export)]) == 0
        doc = json.loads(export.read_text())
        assert doc["campaign"]["spec"]["kind"] == "verify-matrix"
        assert doc["counts"]["done"] == 1
        assert doc["summary"] is None
        capsys.readouterr()

        assert main(["campaign", "resume", "--store", str(db), "--id", cid[:12]]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("repro campaign resume: error: unknown campaign kind "
                                "'verify-matrix'; choose from ['chaos']\n")
        assert captured.out == ""
        with CampaignStore(db) as store:
            assert store.counts(cid)["done"] == 1
            assert store.campaign(cid)["status"] == "running"

    @pytest.mark.parametrize("command", ["status", "resume", "export"])
    def test_missing_store_is_a_usage_error(self, command, tmp_path, capsys):
        """Only ``submit`` creates a store; the readers do not leave an
        empty sqlite file at a mistyped path."""
        from repro.cli import main

        db = tmp_path / "missing.db"
        extra = ["--out", str(tmp_path / "export.json")] if command == "export" else []
        assert main(["campaign", command, "--store", str(db), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro campaign {command}: error: no campaign store at {db}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["status", "resume", "export"])
    def test_unknown_id_prefix_is_a_usage_error(self, command, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "c.db"
        with CampaignStore(db) as store:
            store.register("ab" * 32, {"kind": "chaos", "seed": 1, "trials": 1,
                                       "scale": 0.25})
        extra = ["--out", str(tmp_path / "export.json")] if command == "export" else []
        assert main(["campaign", command, "--store", str(db), "--id", "ff", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"repro campaign {command}: error: "
                                f"no campaign matching 'ff' in {db}\n")
        assert captured.out == ""
