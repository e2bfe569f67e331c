"""Table II — speculative recovery scheduling curbs infectious node
failures.

Terasort, 20 ReduceTasks; a MOF-holding node fails at 10/20/30% of the
reduce phase. Reported per (system, point): number of additional
ReduceTask failures and job execution time. Paper: YARN suffers 2/5/3
additional failures (429/533/516 s); SFM suffers 0 (435/449/445 s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table, run_benchmark_job
from repro.faults import kill_node_at_progress
from repro.workloads import terasort

__all__ = ["Table2Row", "render", "table2_spatial_recovery"]


@dataclass
class Table2Row:
    system: str
    first_failure_point: float
    additional_failures: int
    execution_time: float


def table2_spatial_recovery(
    points=(0.1, 0.2, 0.3),
    systems=("yarn", "sfm"),
    scale: float = 1.0,
) -> list[Table2Row]:
    """The paper's pair by default; any roster of registered policies
    (``repro experiment table2 --policies all``: the whole registry)
    runs through the same failure grid."""
    wl = terasort(100.0 * scale, num_reducers=20)
    rows: list[Table2Row] = []
    for p in points:
        for system in systems:
            fault = kill_node_at_progress(p, target="map-only")
            _, res = run_benchmark_job(wl, system, faults=[fault],
                                       job_name=f"table2-{system}-{p}")
            rows.append(Table2Row(
                system=system.upper(),
                first_failure_point=p,
                additional_failures=res.counters["failed_reduce_attempts"],
                execution_time=res.elapsed,
            ))
    return rows


def render(rows: list[Table2Row]) -> str:
    return format_table(["type", "point", "extra fails", "time (s)"],
                        [(r.system, r.first_failure_point, r.additional_failures,
                          r.execution_time) for r in rows], title="Table II")
