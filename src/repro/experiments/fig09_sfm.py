"""Fig. 9 — SFM vs YARN under a node failure injected at varying points
of the reduce phase, for the three benchmarks plus failure-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table, paper_workloads, run_benchmark_job
from repro.faults import kill_node_at_progress

__all__ = ["Fig09Row", "fig09_sfm_node_failure", "render"]


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
