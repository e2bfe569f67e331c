"""The paper's motivating claim, measured end-to-end (§I).

Kavulya et al.'s production trace shows jobs routinely failed or
delayed by task/node failures; the paper argues most of the damage
comes from ReduceTask handling. Here a trace-like fleet of jobs runs on
one shared cluster with random node failures, once under stock YARN
recovery and once under ALM, and we report the fleet-level outcome: how
many jobs were delayed badly, and the mean/percentile slowdown versus
the same fleet without failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.common import ExperimentConfig
from repro.faults import kill_node_at_progress
from repro.hdfs.hdfs import HdfsConfig
from repro.mapreduce.multijob import SharedCluster
from repro.policies import make_policy
from repro.workloads.generator import TraceMix

__all__ = ["FleetResult", "run_fleet", "motivation_fleet"]


@dataclass
class FleetResult:
    policy: str
    job_slowdowns: dict[str, float] = field(default_factory=dict)
    failed_jobs: int = 0
    total_reduce_failures: int = 0
    makespan: float = 0.0

    @property
    def mean_slowdown(self) -> float:
        vals = list(self.job_slowdowns.values())
        return sum(vals) / len(vals) if vals else float("nan")

    @property
    def worst_slowdown(self) -> float:
        return max(self.job_slowdowns.values()) if self.job_slowdowns else float("nan")

    def delayed_jobs(self, threshold: float = 1.3) -> int:
        return sum(1 for s in self.job_slowdowns.values() if s > threshold)


def _build(mix: TraceMix, policy_name: str, with_faults: bool,
           config: ExperimentConfig) -> SharedCluster:
    sc = SharedCluster(cluster_spec=config.cluster, yarn_config=config.yarn,
                       hdfs_config=config.hdfs)
    for i, (wl, delay) in enumerate(mix.sample()):
        sc.submit(wl, policy=make_policy(policy_name), job_name=f"j{i}-{wl.name}",
                  delay=delay)
    if with_faults:
        # Two node failures timed against distinct jobs' reduce phases
        # (mid-activity by construction, like operators see in traces).
        rng = np.random.default_rng(mix.seed + 1)
        victims = rng.choice(len(sc.jobs), size=min(2, len(sc.jobs)), replace=False)
        for v in np.atleast_1d(victims):
            kill_node_at_progress(0.5, target="reducer").install(sc.jobs[int(v)])
    return sc


def run_fleet(policy_name: str, mix: TraceMix,
              config: ExperimentConfig | None = None) -> FleetResult:
    """Run the fleet twice (clean/faulty) and report per-job slowdowns."""
    cfg = config or ExperimentConfig()
    clean = _build(mix, policy_name, with_faults=False, config=cfg).run_all()
    faulty_cluster = _build(mix, policy_name, with_faults=True, config=cfg)
    faulty = faulty_cluster.run_all()
    result = FleetResult(policy=policy_name)
    for c, f in zip(clean, faulty):
        if f.success and c.elapsed > 0:
            result.job_slowdowns[f.job_name] = f.elapsed / c.elapsed
        if not f.success:
            result.failed_jobs += 1
        result.total_reduce_failures += f.counters["failed_reduce_attempts"]
    result.makespan = max(r.end_time for r in faulty)
    return result


def motivation_fleet(num_jobs: int = 6, scale: float = 1.0) -> dict[str, FleetResult]:
    """YARN-vs-ALM fleet comparison under the same random failures.

    Input replication is 3 here (the production norm, unlike
    the testbed's dfs.replication=2): with two concurrent node
    failures, 2-way replication can genuinely strand input blocks,
    which fails jobs under *any* recovery policy and would only add
    noise to the comparison.
    """
    config = ExperimentConfig(hdfs=HdfsConfig(replication=3))
    # Reducer counts are capped below the trace's >145 tail: a 145-way
    # job on 20 simulated workers is all queueing, no extra signal, and
    # dominates the harness wall time.
    mix = TraceMix(num_jobs=num_jobs, seed=7,
                   mean_reducers=8.0, max_reducers=24).scaled(scale)
    return {
        "yarn": run_fleet("yarn", mix, config),
        "alm": run_fleet("alm", mix, config),
    }
