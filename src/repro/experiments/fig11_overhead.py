"""Fig. 11 — ALG's overhead on failure-free execution is negligible.

Terasort with input sizes 10..320 GB, YARN vs ALG, no faults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Claim, format_table, run_benchmark_job
from repro.workloads import terasort

__all__ = ["Fig11Row", "claims", "fig11_alg_overhead", "render"]


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


def claims(rows: list[Fig11Row]) -> list[Claim]:
    """ALG is never slower than YARN and at most slightly faster (its
    rack-local output pipeline beats the default cross-rack placement)."""
    by_gb: dict[float, dict[str, float]] = {}
    for r in rows:
        by_gb.setdefault(r.input_gb, {})[r.system] = r.job_time
    over = [(v["alg"] / v["yarn"] - 1.0) * 100.0 for v in by_gb.values()]
    return [Claim("worst_overhead_pct", max(over), hi=0.0),
            Claim("best_overhead_pct", min(over), lo=-8.0)]
