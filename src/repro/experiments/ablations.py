"""Ablations of ALM's design choices (DESIGN.md §5).

Not figures from the paper — these decompose *why* ALM works:

- ``ablate_sfm_components`` — turn SFM's two anti-amplification levers
  (proactive MOF regeneration, wait-don't-fail) on/off independently on
  the spatial-amplification scenario.
- ``ablate_fcm_cap`` — the Algorithm 1 line 16 cap under concurrent
  reducer failures.
- ``ablate_liveness_timeout`` — how the RM's NM-expiry timeout sets the
  floor of every node-failure recovery (the first leg of Fig. 3).
- ``compare_iss`` — the §VI related-work baseline (ISS) vs stock YARN
  vs SFM, on failure-free overhead and node-failure recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alm import ALMConfig, ALMPolicy
from repro.experiments.common import ExperimentConfig, run_benchmark_job, scale_from_env
from repro.faults import kill_node_at_progress, kill_reduce_at_progress
from repro.workloads import terasort, wordcount
from repro.yarn.rm import YarnConfig

__all__ = [
    "AblationRow",
    "ablate_alg_frequency_recovery",
    "ablate_fcm_cap",
    "ablate_liveness_timeout",
    "ablate_sfm_components",
    "compare_iss",
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


def ablate_sfm_components(
    crash_progress: float = 0.2,
    scale: float | None = None,
    config: ExperimentConfig | None = None,
) -> list[AblationRow]:
    """Spatial-amplification scenario under four SFM variants."""
    scale = scale_from_env(1.0) if scale is None else scale
    wl = terasort(100.0 * scale, num_reducers=20)
    variants = [
        ("yarn (neither)", "yarn"),
        ("regen only", _sfm(proactive=True, wait=False)),
        ("wait only", _sfm(proactive=False, wait=True)),
        ("full sfm", "sfm"),
    ]
    rows = []
    for name, system in variants:
        fault = kill_node_at_progress(crash_progress, target="map-only")
        _, res = run_benchmark_job(wl, system, faults=[fault], config=config,
                                   job_name=f"ablate-{name}")
        rows.append(AblationRow(name, res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows


def ablate_fcm_cap(
    caps=(0, 1, 10),
    concurrent_failures: int = 5,
    per_reducer_gb: float = 8.0,
    scale: float | None = None,
    config: ExperimentConfig | None = None,
) -> list[AblationRow]:
    """Concurrent reducer failures recovered with different FCM budgets."""
    scale = scale_from_env(1.0) if scale is None else scale
    reducers = 10
    wl = terasort(per_reducer_gb * reducers * scale, num_reducers=reducers)
    rows = []
    for cap in caps:
        faults = [kill_reduce_at_progress(0.75, task_index=i)
                  for i in range(concurrent_failures)]
        _, res = run_benchmark_job(wl, "sfm", faults=faults, config=config,
                                   job_name=f"ablate-fcmcap{cap}",
                                   policy_kwargs={"fcm_cap": cap})
        rows.append(AblationRow(f"fcm_cap={cap}", res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows


def ablate_liveness_timeout(
    timeouts=(30.0, 70.0, 150.0),
    scale: float | None = None,
) -> list[AblationRow]:
    """Fig. 3 scenario with different NM-expiry timeouts: detection
    latency puts a floor under every node-failure recovery."""
    scale = scale_from_env(1.0) if scale is None else scale
    rows = []
    for timeout in timeouts:
        cfg = ExperimentConfig(yarn=YarnConfig(nm_liveness_timeout=timeout))
        wl = wordcount(10.0 * scale, num_reducers=1)
        fault = kill_node_at_progress(0.35, target="reducer")
        _, res = run_benchmark_job(wl, "sfm", faults=[fault], config=cfg,
                                   job_name=f"ablate-to{timeout}")
        rows.append(AblationRow(f"timeout={timeout:.0f}s", res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows


def ablate_alg_frequency_recovery(
    frequencies=(2.0, 10.0, 40.0),
    failure_progress: float = 0.85,
    scale: float | None = None,
    config: ExperimentConfig | None = None,
) -> list[AblationRow]:
    """How the ALG logging interval bounds recovery loss.

    The paper (§III-A) notes that frequent logging keeps the analytics
    progress at risk small; here a late transient ReduceTask failure
    measures exactly that: the resumed attempt loses at most one
    logging interval of reduce work.
    """
    scale = scale_from_env(1.0) if scale is None else scale
    wl = wordcount(10.0 * scale, num_reducers=1)
    rows = []
    for freq in frequencies:
        fault = kill_reduce_at_progress(failure_progress)
        _, res = run_benchmark_job(wl, "alg", faults=[fault], config=config,
                                   job_name=f"ablate-freq{freq}",
                                   policy_kwargs={"alg_frequency": freq})
        rows.append(AblationRow(f"interval={freq:.0f}s", res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows


def compare_iss(
    crash_progress: float = 0.35,
    scale: float | None = None,
    config: ExperimentConfig | None = None,
) -> list[AblationRow]:
    """YARN vs ISS vs SFM: failure-free overhead + node-failure recovery.

    Terasort is the revealing workload: its intermediate data equals
    its input, so ISS's whole-MOF replication costs a full extra pass
    of shuffle-sized traffic on every job (the paper's §VI critique),
    while SFM pays nothing until a failure happens.
    """
    scale = scale_from_env(1.0) if scale is None else scale
    wl = terasort(100.0 * scale, num_reducers=20)
    rows = []
    for name in ("yarn", "iss", "sfm"):
        _, free = run_benchmark_job(wl, name, config=config, job_name=f"iss-free-{name}")
        rows.append(AblationRow(f"{name} failure-free", free.elapsed, 0, 0))
        fault = kill_node_at_progress(crash_progress, target="reducer")
        _, res = run_benchmark_job(wl, name, faults=[fault], config=config,
                                   job_name=f"iss-fail-{name}")
        rows.append(AblationRow(f"{name} node-failure", res.elapsed,
                                res.counters["failed_reduce_attempts"],
                                res.counters["map_reruns"]))
    return rows

