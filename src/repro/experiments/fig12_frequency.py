"""Fig. 12 — ALG performance at different logging frequencies.

The paper observes ALG is insensitive to the frequency, and that more
frequent logging means less work per tick (fewer in-memory segments to
flush).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Claim, format_table, run_benchmark_job
from repro.workloads import terasort

__all__ = ["Fig12Row", "claims", "fig12_log_frequency", "render"]


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


def claims(rows: list[Fig12Row]) -> list[Claim]:
    """Job time is stable across logging intervals, and a longer
    interval logs fewer ticks."""
    times = [r.job_time for r in rows]
    ticks = [r.log_ticks for r in rows]
    return [
        Claim("spread_pct", (max(times) / min(times) - 1.0) * 100.0, hi=10.0),
        Claim("ticks_non_falling_steps", sum(b >= a for a, b in zip(ticks, ticks[1:])), hi=0),
    ]
