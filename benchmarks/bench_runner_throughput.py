"""Runner throughput: parallel fan-out and trial memoization vs the
serial baseline.

This bench establishes the perf baseline for the experiment pipeline
itself (not a paper figure): a multi-trial experiment is executed (a)
serially in-process, (b) fanned out across ``JOBS`` = 4 worker
processes, and (c) twice against a trial store (cold, then warm).
Per-seed trace digests must be bit-identical across all modes — the
speedup must never come at the cost of determinism.

On a single-core host process fan-out cannot beat the clock, and the
runner auto-selects serial execution there (the parallel-equivalence
*test* reports two CPUs to exercise the pool anyway). This bench
therefore measures the fan-out only when real cores exist, and
otherwise records *why* no parallel number is published instead of
publishing a slowdown as if it were a result.

Numbers land in ``BENCH_runner.json`` at the repo root. The >=2x
acceptance bar applies to the best available accelerator: process
fan-out on multi-core hosts, cache hits everywhere (a warm cache skips
the simulation entirely, so its speedup also bounds what re-running a
figure costs after an interrupted sweep).
"""

import json
import os
import time
from pathlib import Path

from repro.experiments.common import ExperimentConfig, run_benchmark_trial
from repro.runner import TrialRunner, shutdown_pools
from repro.workloads import terasort

SEEDS = [2015 + 101 * k for k in range(6)]
JOBS = 4
TRIAL_KWARGS = dict(
    workload=terasort(20.0),
    system="yarn",
    base_config=ExperimentConfig(),
    job_name="bench-runner",
)


def _timed_run(jobs: int, store=None):
    runner = TrialRunner(jobs=jobs, store=store)
    t0 = time.perf_counter()
    results = runner.run("bench_runner_throughput", run_benchmark_trial,
                         SEEDS, kwargs=TRIAL_KWARGS)
    return time.perf_counter() - t0, results


def test_runner_throughput(report, tmp_path):
    cores = os.cpu_count() or 1

    serial_s, serial_res = _timed_run(jobs=1)
    serial_digests = [r.payload["digest"] for r in serial_res]

    parallel_fields: dict
    if cores > 1:
        shutdown_pools()  # first parallel run pays the full pool spawn cost
        parallel_s, parallel_res = _timed_run(jobs=JOBS)
        # Second fan-out reuses the cached worker pool: this is the
        # per-sweep-step cost an experiment driver actually pays.
        parallel_warm_s, parallel_warm_res = _timed_run(jobs=JOBS)

        # Determinism: the parallel fan-out reproduces the serial
        # digests bit-for-bit, seed by seed.
        assert [r.payload["digest"] for r in parallel_res] == serial_digests
        assert [r.payload["digest"] for r in parallel_warm_res] == serial_digests

        parallel_speedup = serial_s / max(parallel_s, 1e-9)
        parallel_fields = {
            "parallel_seconds": round(parallel_s, 3),
            "parallel_warm_seconds": round(parallel_warm_s, 3),
            "parallel_speedup": round(parallel_speedup, 2),
            "pool_reuse_speedup": round(parallel_s / max(parallel_warm_s, 1e-9), 2),
            "digests_identical": True,
        }
    else:
        parallel_speedup = None
        parallel_fields = {
            "parallel_speedup": None,
            "parallel_skipped_reason": (
                "single-core host: process fan-out cannot beat the clock, "
                "runner auto-selects serial (parallel-vs-serial digest "
                "equivalence is covered by tests/test_runner.py)"),
        }

    store = tmp_path / "trials.db"
    cold_s, cold_res = _timed_run(jobs=1, store=store)
    warm_s, warm_res = _timed_run(jobs=1, store=store)
    assert all(not r.cached for r in cold_res)
    assert all(r.cached for r in warm_res)
    assert [r.payload["digest"] for r in warm_res] == serial_digests

    cache_speedup = cold_s / max(warm_s, 1e-9)

    payload = {
        "trials": len(SEEDS),
        "workload": "terasort-20GB",
        "cores": cores,
        "jobs": JOBS,
        "serial_seconds": round(serial_s, 3),
        **parallel_fields,
        "cache_cold_seconds": round(cold_s, 3),
        "cache_warm_seconds": round(warm_s, 3),
        "cache_speedup": round(cache_speedup, 2),
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_runner.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    report("Runner throughput — parallel fan-out + trial cache", json.dumps(payload, indent=2))
    if parallel_speedup is None:
        print(f"parallel-speedup assertion skipped: "
              f"{parallel_fields['parallel_skipped_reason']}")

    # The best accelerator must buy at least 2x over serial execution.
    # On single-core hosts process fan-out cannot beat the clock, so the
    # memoized path carries the bar there; on multi-core hosts the
    # fan-out itself is expected to clear it.
    best = max(filter(None, (parallel_speedup, cache_speedup)))
    assert best >= 2.0, payload
    if cores >= 2 * JOBS:  # plenty of headroom: fan-out itself must win
        assert parallel_speedup >= 2.0, payload
