"""Ablations of ALM's design choices (DESIGN.md §5).

Not figures from the paper — these decompose *why* ALM works:

- ``ablate_sfm_components`` — turn SFM's two anti-amplification levers
  (proactive MOF regeneration, wait-don't-fail) on/off independently on
  the spatial-amplification scenario.
- ``ablate_fcm_cap`` — the Algorithm 1 line 16 cap under concurrent
  reducer failures.
- ``ablate_liveness_timeout`` — how the RM's NM-expiry timeout sets the
  floor of every node-failure recovery (the first leg of Fig. 3).
- ``ablate_alg_frequency_recovery`` — how ALG's logging interval
  bounds the work a late transient failure loses (§III-A).
- ``compare_iss`` — the §VI related-work baseline (ISS) vs stock YARN
  vs SFM, on failure-free overhead and node-failure recovery.

``ablations`` runs all five as the ``ablations`` row of the experiment
table; ``render`` prints one table each and ``claims`` states their
shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alm import ALMConfig, ALMPolicy
from repro.experiments.common import Claim, ExperimentConfig, format_table, run_benchmark_job
from repro.experiments.fig03_temporal import CRASH_PROGRESS
from repro.faults import kill_node_at_progress, kill_reduce_at_progress
from repro.workloads import terasort, wordcount
from repro.yarn.rm import YarnConfig

__all__ = [
    "AblationRow",
    "ablate_alg_frequency_recovery",
    "ablate_fcm_cap",
    "ablate_liveness_timeout",
    "ablate_sfm_components",
    "ablations",
    "claims",
    "compare_iss",
    "render",
]


@dataclass
class AblationRow:
    variant: str
    job_time: float
    additional_reduce_failures: int
    map_reruns: int


def _sfm(proactive: bool, wait: bool) -> ALMPolicy:
    """SFM with one of its two levers switched off."""
    return ALMPolicy(ALMConfig(enable_alg=False, enable_sfm=True,
                               proactive_regeneration=proactive,
                               wait_dont_fail=wait))


def ablate_sfm_components(scale: float = 1.0) -> list[AblationRow]:
    """Spatial-amplification scenario (Fig. 4) under four SFM variants."""
    wl = terasort(100.0 * scale, num_reducers=20)
    variants = [
        ("yarn (neither)", "yarn"),
        ("regen only", _sfm(proactive=True, wait=False)),
        ("wait only", _sfm(proactive=False, wait=True)),
        ("full sfm", "sfm"),
    ]
    rows = []
    for name, system in variants:
        fault = kill_node_at_progress(0.2, target="map-only")
        _, res = run_benchmark_job(wl, system, faults=[fault], job_name=f"ablate-{name}")
        rows.append(AblationRow(name, res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows


def ablate_fcm_cap(scale: float = 1.0) -> list[AblationRow]:
    """Five concurrent reducer failures (8 GB per reducer, 10 reducers)
    recovered with different FCM budgets."""
    wl = terasort(8.0 * 10 * scale, num_reducers=10)
    rows = []
    for cap in (0, 1, 10):
        faults = [kill_reduce_at_progress(0.75, task_index=i) for i in range(5)]
        _, res = run_benchmark_job(wl, "sfm", faults=faults,
                                   job_name=f"ablate-fcmcap{cap}",
                                   policy_kwargs={"fcm_cap": cap})
        rows.append(AblationRow(f"fcm_cap={cap}", res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows


def ablate_liveness_timeout(
    timeouts=(30.0, 70.0, 150.0),
    scale: float = 1.0,
) -> list[AblationRow]:
    """Fig. 3 scenario with different NM-expiry timeouts: detection
    latency puts a floor under every node-failure recovery."""
    rows = []
    for timeout in timeouts:
        cfg = ExperimentConfig(yarn=YarnConfig(nm_liveness_timeout=timeout))
        wl = wordcount(10.0 * scale, num_reducers=1)
        fault = kill_node_at_progress(CRASH_PROGRESS, target="reducer")
        _, res = run_benchmark_job(wl, "sfm", faults=[fault], config=cfg,
                                   job_name=f"ablate-to{timeout}")
        rows.append(AblationRow(f"timeout={timeout:.0f}s", res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows


def ablate_alg_frequency_recovery(scale: float = 1.0) -> list[AblationRow]:
    """How the ALG logging interval bounds recovery loss.

    The paper (§III-A) notes that frequent logging keeps the analytics
    progress at risk small; here a late transient ReduceTask failure
    measures exactly that: the resumed attempt, killed at 85% progress,
    loses at most one logging interval of reduce work.
    """
    wl = wordcount(10.0 * scale, num_reducers=1)
    rows = []
    for freq in (2.0, 10.0, 40.0):
        fault = kill_reduce_at_progress(0.85)
        _, res = run_benchmark_job(wl, "alg", faults=[fault],
                                   job_name=f"ablate-freq{freq}",
                                   policy_kwargs={"alg_frequency": freq})
        rows.append(AblationRow(f"interval={freq:.0f}s", res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows


def compare_iss(scale: float = 1.0) -> list[AblationRow]:
    """YARN vs ISS vs SFM: failure-free overhead + node-failure recovery.

    Terasort is the revealing workload: its intermediate data equals
    its input, so ISS's whole-MOF replication costs a full extra pass
    of shuffle-sized traffic on every job (the paper's §VI critique),
    while SFM pays nothing until a failure happens.
    """
    wl = terasort(100.0 * scale, num_reducers=20)
    rows = []
    for name in ("yarn", "iss", "sfm"):
        _, free = run_benchmark_job(wl, name, job_name=f"iss-free-{name}")
        rows.append(AblationRow(f"{name} failure-free", free.elapsed, 0, 0))
        fault = kill_node_at_progress(0.35, target="reducer")
        _, res = run_benchmark_job(wl, name, faults=[fault], job_name=f"iss-fail-{name}")
        rows.append(AblationRow(f"{name} node-failure", res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows


#: Row key -> (ablation, table title), in print order.
ABLATIONS = {
    "sfm": (ablate_sfm_components, "Ablation — SFM anti-amplification levers"),
    "fcm": (ablate_fcm_cap, "Ablation — FCM budget under 5 concurrent reducer failures"),
    "liveness": (ablate_liveness_timeout, "Ablation — NM liveness timeout (detection floor)"),
    "alg": (ablate_alg_frequency_recovery, "Ablation — ALG interval vs post-failure job time"),
    "iss": (compare_iss, "Baseline — ISS (Ko et al., §VI) vs YARN vs SFM"),
}


def ablations(scale: float = 1.0) -> dict[str, list[AblationRow]]:
    """Every ablation at ``scale``, keyed as :data:`ABLATIONS`."""
    return {key: ablation(scale=scale) for key, (ablation, _title) in ABLATIONS.items()}


def render(result: dict[str, list[AblationRow]]) -> str:
    return "\n\n".join(
        format_table(["variant", "job time (s)", "extra reduce failures", "map reruns"],
                     [(r.variant, r.job_time, r.additional_reduce_failures, r.map_reruns)
                      for r in result[key]], title=title)
        for key, (_ablation, title) in ABLATIONS.items())


def claims(result: dict[str, list[AblationRow]]) -> list[Claim]:
    """Either SFM lever alone removes the spatial amplification YARN
    suffers; a larger FCM budget never loses to regular-mode recovery;
    the job time grows with every longer NM expiry; sparser ALG logging
    loses more work on a late failure; ISS pays a replication overhead
    failure-free, beats YARN on a node failure and does not reach SFM."""
    sfm = {r.variant: r.additional_reduce_failures for r in result["sfm"]}
    fcm = {r.variant: r.job_time for r in result["fcm"]}
    expiry = [r.job_time for r in result["liveness"]]
    interval = [r.job_time for r in result["alg"]]
    iss = {r.variant: r.job_time for r in result["iss"]}
    return [
        Claim("sfm_full_extra_failures", sfm["full sfm"], hi=0),
        Claim("sfm_full_minus_yarn_extra_failures",
              sfm["full sfm"] - sfm["yarn (neither)"], hi=0),
        Claim("sfm_wait_only_minus_yarn_extra_failures",
              sfm["wait only"] - sfm["yarn (neither)"], hi=0),
        Claim("fcm_cap10_over_cap0_pct",
              (fcm["fcm_cap=10"] / fcm["fcm_cap=0"] - 1.0) * 100.0, hi=5.0),
        Claim("liveness_non_growing_steps",
              sum(b <= a for a, b in zip(expiry, expiry[1:])), hi=0),
        Claim("alg_interval2_minus_interval40_s", interval[0] - interval[-1], hi=1.0),
        Claim("iss_failure_free_overhead_pct",
              (iss["iss failure-free"] / iss["yarn failure-free"] - 1.0) * 100.0, lo=10.0),
        Claim("iss_node_failure_gain_over_yarn_pct",
              (1.0 - iss["iss node-failure"] / iss["yarn node-failure"]) * 100.0, lo=5.0),
        Claim("sfm_over_iss_node_failure_pct",
              (iss["sfm node-failure"] / iss["iss node-failure"] - 1.0) * 100.0, hi=5.0),
    ]
