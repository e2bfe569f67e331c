"""Fig. 4 — a single node failure infects healthy ReduceTasks.

Terasort with 20 ReduceTasks; a node that hosts MOFs (and, ideally, no
ReduceTask) is taken down; under stock YARN healthy reducers on other
nodes accumulate fetch failures and are preempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import Claim, run_benchmark_job
from repro.faults import kill_node_at_progress
from repro.workloads import terasort

__all__ = ["Fig04Result", "claims", "fig04_spatial_amplification", "render"]


@dataclass
class Fig04Result:
    job_time: float
    crash_time: float
    victim: str
    infected_failures: list[tuple[float, str, str]] = field(default_factory=list)
    progress_series: list[tuple[float, float]] = field(default_factory=list)
    failed_series: list[tuple[float, float]] = field(default_factory=list)

    @property
    def additional_failures(self) -> int:
        return len(self.infected_failures)


def fig04_spatial_amplification(scale: float = 1.0) -> Fig04Result:
    """Stock YARN; the node fails at 20% of the reduce phase."""
    wl = terasort(100.0 * scale, num_reducers=20)
    fault = kill_node_at_progress(0.2, target="map-only")
    rt, res = run_benchmark_job(wl, "yarn", faults=[fault], job_name="fig04-yarn")
    trace = res.trace
    crash_time = fault.fired_at if fault.fired_at is not None else float("nan")
    infected = [
        (e.time, e.data["attempt"], e.data["node"])
        for e in trace.of_kind("attempt_failed")
        if e.data["type"] == "reduce"
        and e.time >= (crash_time if crash_time == crash_time else 0.0)
        and e.data["node"] != fault.victim_name
    ]
    return Fig04Result(
        job_time=res.elapsed,
        crash_time=crash_time,
        victim=fault.victim_name or "(none)",
        infected_failures=infected,
        progress_series=trace.series_values("reduce_progress"),
        failed_series=trace.series_values("failed_reduce_attempts"),
    )


def render(res: Fig04Result) -> str:
    return (f"fig04: victim={res.victim} crash={res.crash_time:.1f}s "
            f"additional failures={res.additional_failures} job={res.job_time:.1f}s")


def claims(res: Fig04Result) -> list[Claim]:
    """The crash infects healthy reducers on other nodes."""
    return [Claim("additional_failures", res.additional_failures, lo=2)]
