"""Fig. 1 — recovery time: one ReduceTask failure vs many MapTask
failures.

The paper's headline motivation: YARN recovers quickly from even 200
MapTask failures but takes an order of magnitude longer to recover from
a *single* ReduceTask failure.

Recovery time is measured per failure, not as a job-time delta:
for a map-failure wave it is the span from the injection until the last
killed map re-completes; for a ReduceTask failure it is the span from
the injection until the failed task commits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Claim, format_table, run_benchmark_job
from repro.faults import kill_maps_at_time, kill_reduce_at_progress
from repro.workloads import terasort

__all__ = ["Fig01Row", "claims", "fig01_recovery_time", "render"]

#: Reduce progress at which the single ReduceTask fails.
REDUCE_FAILURE_PROGRESS = 0.9


@dataclass
class Fig01Row:
    failure: str
    count: int
    job_time: float
    recovery_time: float


def fig01_recovery_time(
    map_failure_counts=(1, 10, 50, 100, 200),
    scale: float = 1.0,
) -> list[Fig01Row]:
    wl = terasort(100.0 * scale)
    rows: list[Fig01Row] = []

    # Kill N maps mid-way through the first map wave.
    first_wave_kill_time = 10.0
    for n in map_failure_counts:
        fault = kill_maps_at_time(n, at_time=first_wave_kill_time)
        _, res = run_benchmark_job(wl, "yarn", faults=[fault], job_name=f"fig01-maps{n}")
        recovery = _map_wave_recovery(res, fault)
        rows.append(Fig01Row("maptasks", fault.killed, res.elapsed, recovery))

    fault = kill_reduce_at_progress(REDUCE_FAILURE_PROGRESS)
    _, res = run_benchmark_job(wl, "yarn", faults=[fault], job_name="fig01-reduce")
    rows.append(Fig01Row("reducetask", 1, res.elapsed,
                         _reduce_recovery(res, fault)))
    return rows


def render(rows: list[Fig01Row]) -> str:
    return format_table(["failure", "count", "job (s)", "recovery (s)"],
                        [(r.failure, r.count, r.job_time, r.recovery_time) for r in rows],
                        title="Fig. 1")


def claims(rows: list[Fig01Row]) -> list[Claim]:
    """One reduce failure costs several times the recovery of the largest
    map-failure wave, and map recovery stays flat in the wave size
    because the re-runs execute in parallel."""
    reduce_rec = next(r.recovery_time for r in rows if r.failure == "reducetask")
    map_recs = [r.recovery_time for r in rows if r.failure == "maptasks"]
    return [
        Claim("reduce_over_worst_map_recovery", reduce_rec / max(max(map_recs), 1e-9), lo=1.6),
        Claim("map_recovery_max_over_min", max(map_recs) / max(min(map_recs), 1.0), hi=2.5),
    ]


def _map_wave_recovery(res, fault) -> float:
    """Injection -> last killed map re-completed."""
    if fault.fired_at is None or not fault.killed_tasks:
        return 0.0
    killed = set(fault.killed_tasks)
    last = fault.fired_at
    for e in res.trace.of_kind("attempt_success"):
        if e.data["task"] in killed and e.time > fault.fired_at:
            last = max(last, e.time)
            killed.discard(e.data["task"])
    return last - fault.fired_at


def _reduce_recovery(res, fault) -> float:
    """Injection -> failed ReduceTask committed."""
    if fault.fired_at is None:
        return 0.0
    commit = res.trace.last("reduce_commit", task="reduce-0")
    end = commit.time if commit is not None else res.end_time
    return max(0.0, end - fault.fired_at)
