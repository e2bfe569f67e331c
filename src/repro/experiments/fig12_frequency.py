"""Fig. 12 — ALG performance at different logging frequencies.

The paper observes ALG is insensitive to the frequency, and that more
frequent logging means less work per tick (fewer in-memory segments to
flush).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table, run_benchmark_job
from repro.workloads import terasort

__all__ = ["Fig12Row", "fig12_log_frequency", "render"]


@dataclass
class Fig12Row:
    frequency: float
    job_time: float
    log_ticks: int


def fig12_log_frequency(
    frequencies=(2.0, 5.0, 10.0, 20.0, 40.0),
    input_gb: float = 100.0,
    scale: float = 1.0,
) -> list[Fig12Row]:
    wl = terasort(input_gb * scale)
    rows: list[Fig12Row] = []
    for freq in frequencies:
        rt, res = run_benchmark_job(
            wl, "alg", job_name=f"fig12-{freq}",
            policy_kwargs={"alg_frequency": freq})
        rows.append(Fig12Row(freq, res.elapsed, rt.policy.logger.ticks))
    return rows


def render(rows: list[Fig12Row]) -> str:
    return format_table(["interval (s)", "job (s)", "ticks"],
                        [(r.frequency, r.job_time, r.log_ticks) for r in rows],
                        title="Fig. 12")
