"""Durable campaign store: throughput, resume overhead, crash recovery.

Three numbers the campaign layer (``src/repro/campaign/``) must defend:

1. **Durability tax** — trials/second through a sqlite-backed store vs
   the same campaign on ``:memory:``. Per-trial WAL commits must cost a
   rounding error next to the trials themselves.
2. **Resume overhead** — re-running a *complete* campaign executes zero
   trials; the wall time of that pass is the fixed cost a crash-resume
   pays before its first fresh trial.
3. **Crash recovery** — SIGKILL a subprocess campaign around the
   midpoint, resume in-process, and require zero re-executed trials
   with a digest list bit-identical to an uninterrupted run.

Numbers land in ``BENCH_campaign.json`` at the repo root. ``--smoke``
(script mode, used by CI) runs the crash-recovery check on a smaller
campaign without touching the JSON.
"""

import argparse
import json
import os
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.campaign import CampaignStore
from repro.faults.chaos import run_campaign

TRIALS = 24
SCALE = 0.5
SEED = 7

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _quiet(*_args, **_kwargs):
    pass


def _chaos(seed: int, trials: int, scale: float) -> dict:
    return {"kind": "chaos", "seed": seed, "trials": trials, "scale": scale}


def run_once(store, seed: int, trials: int, scale: float) -> dict:
    t0 = time.perf_counter()
    summary = run_campaign(_chaos(seed, trials, scale), store=store,
                           minimize=False, echo=_quiet)
    summary["bench_wall_seconds"] = time.perf_counter() - t0
    return summary


def measure_throughput(tmp: Path, seed: int, trials: int, scale: float) -> dict:
    run_once(None, seed, trials, scale)  # warm-up: worker pool fork cost
    durable = run_once(tmp / "throughput.db", seed, trials, scale)
    in_memory = run_once(None, seed, trials, scale)
    assert durable["digests"] == in_memory["digests"], \
        "durable and in-memory campaigns must be bit-identical"
    d_rate = trials / max(durable["bench_wall_seconds"], 1e-9)
    m_rate = trials / max(in_memory["bench_wall_seconds"], 1e-9)
    return {
        "trials": trials,
        "durable_trials_per_sec": round(d_rate, 3),
        "memory_trials_per_sec": round(m_rate, 3),
        "durability_overhead_pct": round(100.0 * (m_rate - d_rate) / m_rate, 2),
    }


def measure_resume_overhead(tmp: Path, seed: int, trials: int,
                            scale: float) -> dict:
    """Wall time of resuming a campaign with nothing left to run."""
    db = tmp / "resume.db"
    first = run_once(db, seed, trials, scale)
    resumed = run_once(db, seed, trials, scale)
    assert resumed["executed"] == 0 and resumed["skipped"] == trials, resumed
    assert resumed["digests"] == first["digests"]
    wall = resumed["bench_wall_seconds"]
    return {
        "trials": trials,
        "resume_wall_seconds": round(wall, 4),
        "resume_ms_per_stored_trial": round(1000.0 * wall / trials, 3),
    }


# -- crash recovery ----------------------------------------------------------

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


def check_crash_recovery(tmp: Path, seed: int, trials: int, scale: float,
                         attempts: int = 5) -> dict:
    """SIGKILL a subprocess campaign mid-run, resume, compare digests.

    Retries with a fresh store if the child finishes before the kill
    lands (possible on a fast machine with a small campaign).
    """
    threshold = max(2, trials // 2)
    for attempt in range(attempts):
        db = tmp / f"crash-{attempt}.db"
        proc = _spawn_campaign(db, seed, trials, scale)
        deadline = time.monotonic() + 300.0
        done_at_kill = None
        while time.monotonic() < deadline:
            done = _trials_done(db)
            if done >= threshold:
                proc.kill()
                proc.wait()
                done_at_kill = done
                break
            if proc.poll() is not None:
                break  # finished before the kill landed; retry
            time.sleep(0.02)
        else:
            proc.kill()
            proc.wait()
            raise AssertionError(f"campaign never reached {threshold} trials")
        if done_at_kill is None or done_at_kill >= trials:
            continue

        t0 = time.perf_counter()
        resumed = run_campaign(_chaos(seed, trials, scale), store=db,
                               minimize=False, echo=_quiet)
        resume_wall = time.perf_counter() - t0
        assert resumed["skipped"] >= done_at_kill, resumed
        assert resumed["executed"] == trials - resumed["skipped"], resumed
        with CampaignStore(db) as store:
            assert store.max_run_count(resumed["campaign_id"]) == 1, \
                "resume re-executed an already-completed trial"
        fresh = run_campaign(_chaos(seed, trials, scale), minimize=False,
                             echo=_quiet)
        assert resumed["digests"] == fresh["digests"], \
            "resumed campaign diverged from the uninterrupted run"
        return {
            "trials": trials,
            "killed_at_trials": done_at_kill,
            "resumed_executed": resumed["executed"],
            "re_executed_trials": 0,
            "digests_bit_identical": True,
            "resume_wall_seconds": round(resume_wall, 3),
        }
    raise AssertionError(
        f"campaign finished before SIGKILL in all {attempts} attempts; "
        "raise --trials")


def collect(trials: int) -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        return {
            "seed": SEED,
            "scale": SCALE,
            "throughput": measure_throughput(tmp, SEED, trials, SCALE),
            "resume_overhead": measure_resume_overhead(tmp, SEED, trials, SCALE),
            "crash_recovery": check_crash_recovery(tmp, SEED + 1, trials, SCALE),
        }


def test_campaign_store_durability(report):
    row = collect(TRIALS)

    out = Path(__file__).resolve().parents[1] / "BENCH_campaign.json"
    out.write_text(json.dumps(row, indent=2) + "\n")

    report("Durable campaign store — throughput, resume, crash recovery",
           json.dumps(row, indent=2))

    assert row["crash_recovery"]["digests_bit_identical"], row
    assert row["crash_recovery"]["re_executed_trials"] == 0, row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="crash-recovery check only, no BENCH JSON update")
    args = parser.parse_args(argv)
    if args.smoke:
        with tempfile.TemporaryDirectory() as tmpdir:
            row = check_crash_recovery(Path(tmpdir), seed=11, trials=16,
                                       scale=0.25)
        print(f"smoke ok: killed at {row['killed_at_trials']}/"
              f"{row['trials']} trials, resume executed "
              f"{row['resumed_executed']}, re-executed 0, "
              "digests bit-identical")
        return 0
    row = collect(TRIALS)
    out = Path(__file__).resolve().parents[1] / "BENCH_campaign.json"
    out.write_text(json.dumps(row, indent=2) + "\n")
    print(json.dumps(row, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
