"""Fig. 11 — ALG's overhead on failure-free execution is negligible.

Terasort with input sizes 10..320 GB, YARN vs ALG, no faults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table, run_benchmark_job
from repro.workloads import terasort

__all__ = ["Fig11Row", "fig11_alg_overhead", "overhead_pct", "render"]


@dataclass
class Fig11Row:
    input_gb: float
    system: str
    job_time: float


def fig11_alg_overhead(scale: float = 1.0) -> list[Fig11Row]:
    rows: list[Fig11Row] = []
    for gb in (10.0, 20.0, 40.0, 80.0, 160.0, 320.0):
        wl = terasort(gb * scale)
        for system in ("yarn", "alg"):
            _, res = run_benchmark_job(wl, system, job_name=f"fig11-{system}-{gb}")
            rows.append(Fig11Row(gb, system, res.elapsed))
    return rows


def render(rows: list[Fig11Row]) -> str:
    return format_table(["GB", "system", "job (s)"],
                        [(r.input_gb, r.system, r.job_time) for r in rows],
                        title="Fig. 11")


def overhead_pct(rows: list[Fig11Row]) -> dict[float, float]:
    """ALG overhead versus YARN per input size (paper: ~0%)."""
    by_gb: dict[float, dict[str, float]] = {}
    for r in rows:
        by_gb.setdefault(r.input_gb, {})[r.system] = r.job_time
    return {
        gb: (v["alg"] / v["yarn"] - 1.0) * 100.0
        for gb, v in by_gb.items() if "alg" in v and "yarn" in v
    }
