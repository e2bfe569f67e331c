"""Fig. 14 — SFM recovery under multiple concurrent ReduceTask
failures, with per-reducer intermediate data from 1 to 32 GB.

The paper reports SFM cutting recovery time by up to 40.7/44.3/49.5%
for 1/5/10 concurrent failures, with the improvement growing with the
data size (disk-bound merging dominates the stock restart; FCM's
in-memory collective merge does not).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table, run_benchmark_job
from repro.faults import kill_reduce_at_progress
from repro.workloads import terasort

__all__ = ["Fig14Row", "fig14_concurrent_failures", "render"]


@dataclass
class Fig14Row:
    per_reducer_gb: float
    concurrent_failures: int
    system: str
    job_time: float
    recovery_time: float


def fig14_concurrent_failures(
    per_reducer_gb=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
    failure_counts=(1, 5, 10),
    num_reducers: int = 10,
    scale: float = 1.0,
) -> list[Fig14Row]:
    """The failed reducers die at 75% of their progress."""
    rows: list[Fig14Row] = []
    for gb in per_reducer_gb:
        wl = terasort(gb * num_reducers * scale, num_reducers=num_reducers)
        for k in failure_counts:
            k = min(k, num_reducers)
            for system in ("yarn", "sfm"):
                faults = [kill_reduce_at_progress(0.75, task_index=i) for i in range(k)]
                _, res = run_benchmark_job(
                    wl, system, faults=faults, job_name=f"fig14-{system}-{gb}x{k}")
                fired = [f.fired_at for f in faults if f.fired_at is not None]
                t0 = min(fired) if fired else res.end_time
                rows.append(Fig14Row(gb, k, system, res.elapsed,
                                     max(0.0, res.end_time - t0)))
    return rows


def render(rows: list[Fig14Row]) -> str:
    return format_table(["GB/reducer", "failures", "system", "job (s)", "recovery (s)"],
                        [(r.per_reducer_gb, r.concurrent_failures, r.system,
                          r.job_time, r.recovery_time) for r in rows], title="Fig. 14")
