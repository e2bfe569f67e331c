"""Shared plumbing for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from repro.cluster import ClusterSpec
from repro.hdfs.hdfs import HdfsConfig
from repro.mapreduce.job import JobResult, MapReduceRuntime
from repro.mapreduce.recovery import RecoveryPolicy
from repro.policies import make_policy
from repro.runner import TrialRunner
from repro.workloads import BENCHMARKS, Workload
from repro.yarn.rm import YarnConfig

__all__ = [
    "PAPER_INPUTS",
    "Claim",
    "ExperimentConfig",
    "averaged_job_time",
    "format_table",
    "paper_workloads",
    "run_benchmark_job",
    "run_benchmark_trial",
]

#: §V-B input sizes (GB): Terasort 100, Wordcount 10, Secondarysort 10.
PAPER_INPUTS = {"terasort": 100.0, "wordcount": 10.0, "secondarysort": 10.0}


def paper_workloads(scale: float) -> list[Workload]:
    """The three benchmarks Figs. 8, 9 and 15 sweep, at ``scale`` times
    the paper's input sizes."""
    return [BENCHMARKS[name](gb * scale) for name, gb in PAPER_INPUTS.items()]


@dataclass(frozen=True)
class Claim:
    """One paper-shape claim of a figure: the measured ``value`` must
    lie in ``[lo, hi]``. ``owner`` names the ROADMAP item of a known
    deviation; such a claim is expected not to hold (a strict xfail),
    so it fails the gate the moment it starts to hold."""

    name: str
    value: float
    lo: float = float("-inf")
    hi: float = float("inf")
    owner: str | None = None

    @property
    def status(self) -> str:
        """``PASS``/``FAIL``, or ``XFAIL``/``XPASS`` for an owned claim."""
        holds = self.lo <= self.value <= self.hi
        if self.owner is None:
            return "PASS" if holds else "FAIL"
        return "XPASS" if holds else "XFAIL"


@dataclass
class ExperimentConfig:
    """Cluster/framework setup shared by all experiments.

    Defaults mirror the paper's testbed (§V-A): 21 nodes (1 master +
    20 workers), two racks, Table I parameters. The one seed is
    ``cluster.seed``.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    yarn: YarnConfig = field(default_factory=YarnConfig)
    hdfs: HdfsConfig = field(default_factory=HdfsConfig)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, cluster=replace(self.cluster, seed=seed))


def run_benchmark_job(
    workload: Workload,
    system: str | RecoveryPolicy = "yarn",
    faults: Iterable[Any] = (),
    config: ExperimentConfig | None = None,
    job_name: str | None = None,
    policy_kwargs: dict | None = None,
) -> tuple[MapReduceRuntime, JobResult]:
    """Run one job under one system with faults; returns (runtime, result).

    ``system`` is a registered policy name (built with
    ``policy_kwargs``) or a ready :class:`RecoveryPolicy` instance."""
    cfg = config or ExperimentConfig()
    if isinstance(system, str):
        policy = make_policy(system, **(policy_kwargs or {}))
    else:
        policy, system = system, system.name
    rt = MapReduceRuntime(
        workload,
        cluster_spec=cfg.cluster,
        yarn_config=cfg.yarn,
        hdfs_config=cfg.hdfs,
        policy=policy,
        job_name=job_name or f"{workload.name}-{system}",
    )
    for fault in faults:
        fault.install(rt)
    return rt, rt.run()


def run_benchmark_trial(
    seed: int,
    workload: Workload,
    system: str = "yarn",
    fault_factory: Callable[[], Any] | None = None,
    base_config: ExperimentConfig | None = None,
    job_name: str = "trial",
) -> dict[str, Any]:
    """One seeded job, reduced to a picklable payload.

    This is the :class:`~repro.runner.TrialRunner` fan-out target for
    every experiment that averages or sweeps independent seeds: workers
    cannot ship a live :class:`MapReduceRuntime` back across the process
    boundary, so the trial collapses to elapsed time, counters, the
    trace digest that pins seed-determinism and the post-run invariant
    violations, which the runner fails loudly on.
    """
    from repro.invariants import check_invariants

    cfg = (base_config or ExperimentConfig()).with_seed(seed)
    faults = [fault_factory()] if fault_factory is not None else []
    rt, res = run_benchmark_job(workload, system, faults=faults, config=cfg,
                                job_name=f"{job_name}-s{seed}")
    return {
        "elapsed": res.elapsed,
        "success": res.success,
        "counters": dict(res.counters),
        "digest": res.trace.digest(),
        "invariant_violations": check_invariants(rt, res),
    }


def averaged_job_time(
    workload: Workload,
    system: str,
    fault_factory: Callable[[], Any] | None = None,
    config: ExperimentConfig | None = None,
    repeats: int = 3,
    job_name: str = "avg",
) -> float:
    """Mean job time over ``repeats`` seeds (the paper's 'average of
    three test runs'); damps placement/scheduling noise that a single
    simulated run shares with a single testbed run.

    Trials go through the serial :class:`~repro.runner.TrialRunner`,
    which fails loudly on any trial's invariant violations.
    """
    cfg = config or ExperimentConfig()
    seeds = [cfg.cluster.seed + 101 * k for k in range(repeats)]
    results = TrialRunner().run(
        experiment=f"averaged_job_time:{workload.name}:{system}:{job_name}",
        fn=run_benchmark_trial,
        seeds=seeds,
        kwargs=dict(workload=workload, system=system, fault_factory=fault_factory,
                    base_config=cfg, job_name=job_name),
    )
    times = [r.payload["elapsed"] for r in results]
    return sum(times) / len(times)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str | None = None) -> str:
    """Plain-text table matching how the benches report paper rows."""
    rows = [[_fmt(c) for c in r] for r in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)
