"""Fig. 3 — the temporal repetition of a ReduceTask failure.

Profile of a Wordcount job with one ReduceTask under stock YARN: a node
crash stalls the reduce progress; the scheduler only notices after the
liveness timeout; the recovered ReduceTask then stalls against the dead
node's MOFs and is declared failed a *second* time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import run_benchmark_job
from repro.faults import kill_node_at_progress
from repro.workloads import wordcount

__all__ = ["CRASH_PROGRESS", "Fig03Result", "fig03_temporal_amplification", "render"]

#: Reduce progress at which the reducer's node crashes (Figs. 3 and 10).
CRASH_PROGRESS = 0.35


@dataclass
class Fig03Result:
    job_time: float
    crash_time: float
    detect_time: float
    recovery_start: float
    #: When the recovery attempt actually began processing (under SFM
    #: this is the fcm_start event — after MOF regeneration).
    effective_recovery_start: float = float("nan")
    repeat_failure_times: list[float] = field(default_factory=list)
    progress_series: list[tuple[float, float]] = field(default_factory=list)

    @property
    def detection_delay(self) -> float:
        """Paper: ~70 s (the NM liveness timeout)."""
        return self.detect_time - self.crash_time

    @property
    def second_failure_delay(self) -> float:
        """Paper: the recovered task is re-declared failed ~51 s later."""
        if not self.repeat_failure_times:
            return float("nan")
        return self.repeat_failure_times[0] - self.recovery_start


def fig03_temporal_amplification(system: str = "yarn", scale: float = 1.0) -> Fig03Result:
    wl = wordcount(10.0 * scale, num_reducers=1)
    fault = kill_node_at_progress(CRASH_PROGRESS, target="reducer")
    rt, res = run_benchmark_job(wl, system, faults=[fault], job_name=f"fig03-{system}")
    trace = res.trace
    lost = trace.first("node_lost")
    detect_time = lost.time if lost else float("nan")
    starts = [e for e in trace.of_kind("attempt_start")
              if e.data["type"] == "reduce" and e.time > (fault.fired_at or 0)]
    recovery_start = starts[0].time if starts else float("nan")
    repeats = [e.time for e in trace.of_kind("attempt_failed")
               if e.data["type"] == "reduce" and e.time > detect_time]
    fcm = trace.first("fcm_start")
    return Fig03Result(
        job_time=res.elapsed,
        crash_time=fault.fired_at if fault.fired_at is not None else float("nan"),
        detect_time=detect_time,
        recovery_start=recovery_start,
        effective_recovery_start=fcm.time if fcm is not None else recovery_start,
        repeat_failure_times=repeats,
        progress_series=trace.series_values("reduce_progress"),
    )


def render(res: Fig03Result, name: str = "fig03") -> str:
    return (f"{name}: crash={res.crash_time:.1f}s detect={res.detect_time:.1f}s "
            f"repeats={[round(t, 1) for t in res.repeat_failure_times]} "
            f"job={res.job_time:.1f}s")
