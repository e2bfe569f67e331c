"""Fig. 2 — delayed job execution from a single task failure.

A single MapTask failure has negligible impact; a single ReduceTask
failure degrades Terasort/Wordcount execution markedly, and more so the
later it strikes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.experiments.common import Claim, averaged_job_time, format_table
from repro.faults.inject import TaskFault
from repro.mapreduce.tasks import TaskType
from repro.workloads import terasort, wordcount

__all__ = ["Fig02Row", "claims", "fig02_delayed_execution", "render"]

#: Seeded runs averaged per point.
REPEATS = 3


@dataclass
class Fig02Row:
    workload: str
    failure: str
    progress: float
    job_time: float
    baseline: float

    @property
    def degradation_pct(self) -> float:
        return (self.job_time / self.baseline - 1.0) * 100.0


def fig02_delayed_execution(
    progress_points=(0.3, 0.6, 0.9),
    scale: float = 1.0,
) -> list[Fig02Row]:
    """Each point is the mean of ``REPEATS`` seeded runs (§V-B: 'each
    of the results is the average of three test runs') — a single run's
    placement noise can exceed the effect of one short map failure."""
    workloads = [terasort(100.0 * scale), wordcount(10.0 * scale)]
    rows: list[Fig02Row] = []
    for wl in workloads:
        base = averaged_job_time(wl, "yarn", repeats=REPEATS,
                                 job_name=f"fig02-{wl.name}-base")
        for p in progress_points:
            t_map = averaged_job_time(
                wl, "yarn", partial(TaskFault, TaskType.MAP, 0, p),
                repeats=REPEATS, job_name=f"fig02-{wl.name}-map{p}")
            rows.append(Fig02Row(wl.name, "maptask", p, t_map, base))
            t_red = averaged_job_time(
                wl, "yarn", partial(TaskFault, TaskType.REDUCE, 0, p),
                repeats=REPEATS, job_name=f"fig02-{wl.name}-red{p}")
            rows.append(Fig02Row(wl.name, "reducetask", p, t_red, base))
    return rows


def render(rows: list[Fig02Row]) -> str:
    return format_table(["workload", "failure", "progress", "job (s)", "deg %"],
                        [(r.workload, r.failure, r.progress, r.job_time,
                          r.degradation_pct) for r in rows], title="Fig. 2")


def claims(rows: list[Fig02Row]) -> list[Claim]:
    """Per workload: the worst reduce failure costs well over the worst
    map failure, and the reduce cost grows with the failure point.
    Terasort's map failure costs more than its reduce failure: the
    uneven map wave leaves the reducers co-located (ROADMAP item 12)."""
    out = []
    for wl, owner in (("terasort", "ROADMAP item 12"), ("wordcount", None)):
        reduce_deg = [r.degradation_pct for r in rows
                      if r.workload == wl and r.failure == "reducetask"]
        map_deg = [r.degradation_pct for r in rows
                   if r.workload == wl and r.failure == "maptask"]
        out.append(Claim(f"{wl}_reduce_minus_map_pct", max(reduce_deg) - max(map_deg),
                         lo=15.0, owner=owner))
        out.append(Claim(f"{wl}_reduce_cost_non_growing_steps",
                         sum(b <= a for a, b in zip(reduce_deg, reduce_deg[1:])), hi=0))
    return out
