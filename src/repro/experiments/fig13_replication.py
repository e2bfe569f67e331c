"""Fig. 13 — impact of ALG's replication level on the reduce stage.

Terasort 10..320 GB with ALG's reduce-stage logs/output replicated at
node, rack or cluster level. The paper reports ~18.4% reduce-stage
slowdown for rack and ~55.7% for cluster replication at 320 GB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Claim, format_table, run_benchmark_job
from repro.hdfs.hdfs import ReplicationLevel
from repro.workloads import terasort

__all__ = ["Fig13Row", "claims", "fig13_replication_levels", "render"]


@dataclass
class Fig13Row:
    input_gb: float
    level: str
    job_time: float
    reduce_phase_time: float


def _reduce_phase_time(res) -> float:
    """Time from first reducer launch to job end."""
    first = res.trace.first("attempt_start", type="reduce")
    if first is None:
        return float("nan")
    return res.end_time - first.time


def fig13_replication_levels(scale: float = 1.0) -> list[Fig13Row]:
    rows: list[Fig13Row] = []
    for gb in (10.0, 40.0, 160.0, 320.0):
        wl = terasort(gb * scale)
        for level in (ReplicationLevel.NODE, ReplicationLevel.RACK, ReplicationLevel.CLUSTER):
            _, res = run_benchmark_job(
                wl, "alg", job_name=f"fig13-{level.value}-{gb}",
                policy_kwargs={"alg_level": level})
            rows.append(Fig13Row(gb, level.value, res.elapsed, _reduce_phase_time(res)))
    return rows


def render(rows: list[Fig13Row]) -> str:
    return format_table(["GB", "level", "job (s)", "reduce phase (s)"],
                        [(r.input_gb, r.level, r.job_time, r.reduce_phase_time)
                         for r in rows], title="Fig. 13")


def claims(rows: list[Fig13Row]) -> list[Claim]:
    """Reduce-stage time orders node < rack < cluster at every size,
    the cluster penalty is large at the largest size and the rack
    penalty does not shrink with size."""
    by_gb: dict[float, dict[str, float]] = {}
    for r in rows:
        by_gb.setdefault(r.input_gb, {})[r.level] = r.reduce_phase_time
    pct = {gb: {level: (t / v["node"] - 1.0) * 100.0 for level, t in v.items()}
           for gb, v in by_gb.items()}
    small, big = pct[min(pct)], pct[max(pct)]
    return [
        Claim("sizes_out_of_order",
              sum(not v["node"] < v["rack"] < v["cluster"] for v in by_gb.values()), hi=0),
        Claim("cluster_pct_at_largest", big["cluster"], lo=10.0),
        Claim("rack_pct_growth", big["rack"] - small["rack"], lo=-2.0),
    ]
