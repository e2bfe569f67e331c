"""Fig. 15 — benefits of enabling both ALG and SFM.

Late node failure in the reduce phase: SFM+ALG (ALM) recovers faster
than SFM alone because the reduce-stage logs on HDFS let the recovery
skip the already-reduced prefix (and its deserialisation). The paper
reports further 11.4/16.1/25.8% gains for Terasort/Wordcount/
Secondarysort, with Secondarysort gaining most (reduce-CPU heavy).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table, paper_workloads, run_benchmark_job
from repro.faults import kill_node_at_progress

__all__ = ["Fig15Row", "fig15_sfm_plus_alg", "further_improvement", "render"]


@dataclass
class Fig15Row:
    workload: str
    system: str
    job_time: float
    recovery_time: float


def fig15_sfm_plus_alg(scale: float = 1.0) -> list[Fig15Row]:
    """The reducer's node fails at 80% of the reduce phase."""
    rows: list[Fig15Row] = []
    for wl in paper_workloads(scale):
        for system in ("sfm", "alm"):
            fault = kill_node_at_progress(0.8, target="reducer")
            _, res = run_benchmark_job(wl, system, faults=[fault],
                                       job_name=f"fig15-{wl.name}-{system}")
            t0 = fault.fired_at if fault.fired_at is not None else res.end_time
            rows.append(Fig15Row(wl.name, system, res.elapsed,
                                 _failed_task_recovery_time(res, t0)))
    return rows


def render(rows: list[Fig15Row]) -> str:
    return format_table(["workload", "system", "job (s)", "recovery (s)"],
                        [(r.workload, r.system, r.job_time, r.recovery_time)
                         for r in rows], title="Fig. 15")


def _failed_task_recovery_time(res, fault_time: float) -> float:
    """Time from the failure until the *failed* ReduceTask re-commits
    (the paper's 'recovery process')."""
    killed = res.trace.first("attempt_killed_node_lost", type="reduce")
    if killed is None:
        return max(0.0, res.end_time - fault_time)
    task_name = killed.data["task"]
    commit = res.trace.last("reduce_commit", task=task_name)
    end = commit.time if commit is not None else res.end_time
    return max(0.0, end - fault_time)


def further_improvement(rows: list[Fig15Row]) -> dict[str, float]:
    """ALM's recovery-time gain over SFM-only, % per workload."""
    by_wl: dict[str, dict[str, float]] = {}
    for r in rows:
        by_wl.setdefault(r.workload, {})[r.system] = r.recovery_time
    return {
        wl: (1.0 - v["alm"] / v["sfm"]) * 100.0
        for wl, v in by_wl.items() if "alm" in v and "sfm" in v and v["sfm"] > 0
    }
