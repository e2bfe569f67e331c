"""Fig. 2 — delayed job execution from a single task failure.

A single MapTask failure has negligible impact; a single ReduceTask
failure degrades Terasort/Wordcount execution markedly, and more so the
later it strikes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.experiments.common import averaged_job_time, format_table
from repro.faults.inject import TaskFault
from repro.mapreduce.tasks import TaskType
from repro.workloads import terasort, wordcount

__all__ = ["Fig02Row", "fig02_delayed_execution", "render"]


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
    repeats: int = 3,
) -> list[Fig02Row]:
    """Each point is the mean of ``repeats`` seeded runs (§V-B: 'each
    of the results is the average of three test runs') — a single run's
    placement noise can exceed the effect of one short map failure."""
    workloads = [terasort(100.0 * scale), wordcount(10.0 * scale)]
    rows: list[Fig02Row] = []
    for wl in workloads:
        base = averaged_job_time(wl, "yarn", repeats=repeats,
                                 job_name=f"fig02-{wl.name}-base")
        for p in progress_points:
            # partial() over the fault class keeps the factory nameable,
            # so these arms are memoized and fan out like the baseline.
            t_map = averaged_job_time(
                wl, "yarn", partial(TaskFault, TaskType.MAP, 0, p),
                repeats=repeats, job_name=f"fig02-{wl.name}-map{p}")
            rows.append(Fig02Row(wl.name, "maptask", p, t_map, base))
            t_red = averaged_job_time(
                wl, "yarn", partial(TaskFault, TaskType.REDUCE, 0, p),
                repeats=repeats, job_name=f"fig02-{wl.name}-red{p}")
            rows.append(Fig02Row(wl.name, "reducetask", p, t_red, base))
    return rows


def render(rows: list[Fig02Row]) -> str:
    return format_table(["workload", "failure", "progress", "job (s)", "deg %"],
                        [(r.workload, r.failure, r.progress, r.job_time,
                          r.degradation_pct) for r in rows], title="Fig. 2")
