"""Fig. 8 — ALG vs YARN under a single transient ReduceTask failure
injected at 10%..90% of the ReduceTask's progress, for the three
benchmarks plus the failure-free reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import PAPER_INPUTS, Claim, format_table, paper_workloads, run_benchmark_job
from repro.faults import kill_reduce_at_progress

__all__ = ["Fig08Row", "claims", "fig08_alg_task_failure", "mean_improvement", "render"]


@dataclass
class Fig08Row:
    workload: str
    system: str
    progress: float  # failure injection point; -1 = failure-free
    job_time: float


def fig08_alg_task_failure(
    progress_points=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    scale: float = 1.0,
) -> list[Fig08Row]:
    rows: list[Fig08Row] = []
    for wl in paper_workloads(scale):
        _, base = run_benchmark_job(wl, "yarn", job_name=f"fig08-{wl.name}-base")
        rows.append(Fig08Row(wl.name, "failure-free", -1.0, base.elapsed))
        for p in progress_points:
            for system in ("yarn", "alg"):
                _, res = run_benchmark_job(
                    wl, system, faults=[kill_reduce_at_progress(p)],
                    job_name=f"fig08-{wl.name}-{system}-{p}")
                rows.append(Fig08Row(wl.name, system, p, res.elapsed))
    return rows


def render(rows: list[Fig08Row]) -> str:
    return format_table(["workload", "system", "progress", "job (s)"],
                        [(r.workload, r.system, r.progress, r.job_time) for r in rows],
                        title="Fig. 8")


def claims(rows: list[Fig08Row]) -> list[Claim]:
    """ALG beats YARN on average on every workload. The paper also has
    ALG no slower than YARN at every point; on Wordcount it is slower up
    to 60% progress (ROADMAP item 12)."""
    wordcount = [r for r in rows if r.workload == "wordcount"]
    yarn = {r.progress: r.job_time for r in wordcount if r.system == "yarn"}
    return [
        *(Claim(f"{wl}_mean_gain_pct", mean_improvement(rows, wl), lo=1.0)
          for wl in PAPER_INPUTS),
        Claim("wordcount_alg_minus_yarn_max_s_at_10_to_60pct",
              max(r.job_time - yarn[r.progress] for r in wordcount
                  if r.system == "alg" and r.progress <= 0.6),
              hi=0.0, owner="ROADMAP item 12"),
    ]


def mean_improvement(rows: list, workload: str, system: str = "alg") -> float:
    """Average % improvement of ``system`` over YARN across the swept
    failure points of Fig. 8 (the paper reports ALG 15.4/20.1/15.9%) or
    Fig. 9 (SFM 10.9/39.4/18.8%)."""
    by_p: dict[float, dict[str, float]] = {}
    for r in rows:
        if r.workload == workload and r.progress >= 0:
            by_p.setdefault(r.progress, {})[r.system] = r.job_time
    gains = [
        (1.0 - vals[system] / vals["yarn"]) * 100.0
        for vals in by_p.values()
        if "yarn" in vals and system in vals
    ]
    return sum(gains) / len(gains) if gains else float("nan")
