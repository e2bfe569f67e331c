"""Fig. 9 — SFM vs YARN under a node failure injected at varying points
of the reduce phase, for the three benchmarks plus failure-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import PAPER_INPUTS, Claim, format_table, paper_workloads, run_benchmark_job
from repro.experiments.fig08_alg import mean_improvement
from repro.faults import kill_node_at_progress

__all__ = ["Fig09Row", "claims", "fig09_sfm_node_failure", "render"]


@dataclass
class Fig09Row:
    workload: str
    system: str
    progress: float  # node-failure point in the reduce phase; -1 = failure-free
    job_time: float
    additional_reduce_failures: int


def fig09_sfm_node_failure(
    progress_points=(0.1, 0.3, 0.5, 0.7, 0.9),
    scale: float = 1.0,
) -> list[Fig09Row]:
    rows: list[Fig09Row] = []
    for wl in paper_workloads(scale):
        _, base = run_benchmark_job(wl, "yarn", job_name=f"fig09-{wl.name}-base")
        rows.append(Fig09Row(wl.name, "failure-free", -1.0, base.elapsed, 0))
        for p in progress_points:
            for system in ("yarn", "sfm"):
                fault = kill_node_at_progress(p, target="reducer")
                _, res = run_benchmark_job(
                    wl, system, faults=[fault], job_name=f"fig09-{wl.name}-{system}-{p}")
                rows.append(Fig09Row(
                    wl.name, system, p, res.elapsed,
                    res.counters["failed_reduce_attempts"]))
    return rows


def render(rows: list[Fig09Row]) -> str:
    return format_table(["workload", "system", "progress", "job (s)", "extra fails"],
                        [(r.workload, r.system, r.progress, r.job_time,
                          r.additional_reduce_failures) for r in rows], title="Fig. 9")


def claims(rows: list[Fig09Row]) -> list[Claim]:
    """SFM beats YARN on average on every workload and never adds a
    reducer failure, while YARN adds 2-3 at all but one point. At that
    point (Secondarysort at 10%) SFM is slower than YARN, where the
    paper has SFM no slower anywhere (ROADMAP item 12)."""
    yarn = [r.additional_reduce_failures for r in rows if r.system == "yarn"]
    sfm = [r.additional_reduce_failures for r in rows if r.system == "sfm"]
    sfm_time = {(r.workload, r.progress): r.job_time for r in rows if r.system == "sfm"}
    return [
        *(Claim(f"{wl}_mean_gain_pct", mean_improvement(rows, wl, system="sfm"), lo=10.0)
          for wl in PAPER_INPUTS),
        Claim("sfm_extra_failures", max(sfm), hi=0),
        Claim("yarn_points_with_2_to_3_extra_failures", sum(2 <= n <= 3 for n in yarn), lo=14),
        Claim("sfm_minus_yarn_max_s_where_yarn_adds_no_failure",
              max(sfm_time[r.workload, r.progress] - r.job_time for r in rows
                  if r.system == "yarn" and r.additional_reduce_failures == 0),
              hi=0.0, owner="ROADMAP item 12"),
    ]
