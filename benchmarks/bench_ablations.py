"""Ablations of ALM's design choices (beyond the paper's figures).

Decomposes SFM into its levers, sweeps the FCM cap (Algorithm 1 line
16), quantifies the liveness-timeout floor, and pits the §VI ISS
baseline against stock YARN and SFM.
"""

from repro.experiments import format_table
from repro.experiments.ablations import (
    ablate_alg_frequency_recovery,
    ablate_fcm_cap,
    ablate_liveness_timeout,
    ablate_sfm_components,
    compare_iss,
)


def _table(rows):
    return format_table(
        ["variant", "job time (s)", "extra reduce failures", "map reruns"],
        [(r.variant, r.job_time, r.additional_reduce_failures, r.map_reruns)
         for r in rows],
    )


def test_ablation_sfm_components(benchmark, report, scale):
    rows = benchmark.pedantic(ablate_sfm_components, rounds=1, iterations=1,
                              kwargs={"scale": scale})
    report("Ablation — SFM anti-amplification levers", _table(rows), scale)
    by = {r.variant: r for r in rows}
    # Either lever alone already removes (or greatly reduces) the
    # amplification; the full mechanism removes it entirely.
    assert by["full sfm"].additional_reduce_failures == 0
    assert by["full sfm"].additional_reduce_failures <= by["yarn (neither)"].additional_reduce_failures
    assert by["wait only"].additional_reduce_failures <= by["yarn (neither)"].additional_reduce_failures


def test_ablation_fcm_cap(benchmark, report, scale):
    rows = benchmark.pedantic(ablate_fcm_cap, rounds=1, iterations=1, kwargs={"scale": scale})
    report("Ablation — FCM budget under 5 concurrent reducer failures", _table(rows), scale)
    by = {r.variant: r.job_time for r in rows}
    # FCM-mode recovery should not lose to regular-mode recovery.
    assert by["fcm_cap=10"] <= by["fcm_cap=0"] * 1.05


def test_ablation_liveness_timeout(benchmark, report, scale):
    rows = benchmark.pedantic(ablate_liveness_timeout, rounds=1, iterations=1,
                              kwargs={"scale": scale})
    report("Ablation — NM liveness timeout (detection floor)", _table(rows), scale)
    times = [r.job_time for r in rows]
    # Longer expiry -> strictly later detection -> longer job.
    assert times[0] < times[1] < times[2]


def test_ablation_alg_frequency_recovery(benchmark, report, scale):
    rows = benchmark.pedantic(ablate_alg_frequency_recovery, rounds=1, iterations=1,
                              kwargs={"scale": scale})
    report("Ablation — ALG interval vs post-failure job time", _table(rows), scale)
    times = [r.job_time for r in rows]
    # Sparser logging loses more work on a late failure.
    assert times[0] <= times[-1] + 1.0


def test_compare_iss_baseline(benchmark, report, scale):
    rows = benchmark.pedantic(compare_iss, rounds=1, iterations=1, kwargs={"scale": scale})
    report("Baseline — ISS (Ko et al., §VI) vs YARN vs SFM", _table(rows), scale)
    by = {r.variant: r.job_time for r in rows}
    # ISS pays replication overhead on the failure-free run...
    assert by["iss failure-free"] > by["yarn failure-free"] * 1.02
    # ...beats stock YARN on a node failure (no map re-execution)...
    assert by["iss node-failure"] < by["yarn node-failure"]
    # ...but does not reach SFM (no migration/FCM/logging).
    assert by["sfm node-failure"] <= by["iss node-failure"] * 1.05
