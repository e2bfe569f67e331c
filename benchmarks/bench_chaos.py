"""Chaos campaign throughput and seed-reproducibility.

Runs one small campaign twice with the same seed and once with a
different seed: the same seed must reproduce the identical campaign —
the generated schedules *and* every per-trial trace digest — while a
different seed must diverge (otherwise the generator is ignoring its
seed). Also reports trials/second as a budget number for CI smoke
sizing.

Numbers land in ``BENCH_chaos.json`` at the repo root. ``--smoke``
(script mode, used by CI) runs the reproducibility check on a smaller
campaign without touching the JSON.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.faults.chaos import generate_trial, run_campaign

TRIALS = 20
SCALE = 0.5


def run_once(seed: int, trials: int) -> dict:
    t0 = time.perf_counter()
    summary = run_campaign({"kind": "chaos", "seed": seed, "trials": trials,
                            "scale": SCALE}, minimize=False, echo=lambda *_: None)
    wall = time.perf_counter() - t0
    return {
        "summary": summary,
        "wall_seconds": wall,
        "trials_per_sec": trials / max(wall, 1e-9),
    }


def check_reproducibility(seed: int, trials: int) -> dict:
    campaign = {"seed": seed, "scale": SCALE}
    schedules = [generate_trial(campaign, i) for i in range(trials)]
    a = run_once(seed, trials)
    b = run_once(seed, trials)
    assert [generate_trial(campaign, i) for i in range(trials)] == schedules
    assert a["summary"]["digests"] == b["summary"]["digests"], \
        "same campaign seed must reproduce identical trace digests"
    other = run_once(seed + 1, trials)
    assert other["summary"]["digests"] != a["summary"]["digests"], \
        "a different campaign seed must produce a different campaign"
    return {
        "seed": seed,
        "trials": trials,
        "violations": a["summary"]["violations"],
        "jobs_failed": a["summary"]["jobs_failed"],
        "by_policy": a["summary"]["by_policy"],
        "by_kind": a["summary"]["by_kind"],
        "digests_identical_across_runs": True,
        "wall_seconds": round(a["wall_seconds"], 3),
        "trials_per_sec": round(a["trials_per_sec"], 3),
    }


def test_chaos_campaign_reproducibility(report):
    row = check_reproducibility(seed=7, trials=TRIALS)

    out = Path(__file__).resolve().parents[1] / "BENCH_chaos.json"
    out.write_text(json.dumps(row, indent=2) + "\n")

    report("Chaos campaign — seed reproducibility and throughput",
           json.dumps(row, indent=2))

    assert row["violations"] == 0, row
    assert len(row["by_policy"]) == 5, row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller campaign, no BENCH_chaos.json update")
    args = parser.parse_args(argv)
    trials = 8 if args.smoke else TRIALS
    row = check_reproducibility(seed=7, trials=trials)
    if args.smoke:
        print(f"smoke ok: {trials} trials reproduce bit-identically, "
              f"{row['violations']} violations, "
              f"{row['trials_per_sec']:.2f} trials/sec")
    else:
        out = Path(__file__).resolve().parents[1] / "BENCH_chaos.json"
        out.write_text(json.dumps(row, indent=2) + "\n")
        print(json.dumps(row, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
