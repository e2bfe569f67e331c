"""Human-readable reports rendered from a job trace.

Text-mode equivalents of the plots in the paper: a task Gantt chart,
the reduce-progress curve (Figs. 3/4/10) and a failure timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import JobResult

__all__ = ["failure_timeline", "progress_curve", "task_gantt"]

#: Bar widths in characters, and the progress curve's sample stride.
CURVE_WIDTH = 50
GANTT_WIDTH = 60
CURVE_STEP = 5


def progress_curve(trace: Trace, name: str = "reduce_progress") -> str:
    """ASCII rendering of a sampled progress series."""
    points = trace.series_values(name)[::CURVE_STEP]
    if not points:
        return f"(no samples for series {name!r})"
    lines = [f"{name} over time:"]
    for t, v in points:
        bar = "#" * int(max(0.0, min(v, 1.0)) * CURVE_WIDTH)
        lines.append(f"  t={t:8.1f}s |{bar:<{CURVE_WIDTH}}| {v * 100:5.1f}%")
    return "\n".join(lines)


def failure_timeline(trace: Trace) -> str:
    """All failure-related events in order."""
    kinds = {"fault_injected", "node_lost", "attempt_failed", "task_failed",
             "map_rerun", "sfm_regenerate", "fcm_start", "iss_switch",
             "fetch_failure_report", "speculation"}
    lines = ["failure timeline:"]
    shown = 0
    for e in trace.events:
        if e.kind not in kinds:
            continue
        if e.kind == "fetch_failure_report" and e.data.get("count", 0) > 1:
            continue  # only the first report per map keeps the log readable
        detail = ", ".join(f"{k}={v}" for k, v in e.data.items() if k != "job")
        lines.append(f"  t={e.time:8.1f}s  {e.kind:22s} {detail}")
        shown += 1
    if shown == 0:
        lines.append("  (no failures)")
    return "\n".join(lines)


def task_gantt(result: "JobResult", task_filter: str = "reduce") -> str:
    """Per-attempt execution bars ('#' running, 'x' failed end)."""
    starts = {e.data["attempt"]: e.time for e in result.trace.of_kind("attempt_start")
              if e.data["type"] == task_filter}
    ends: dict[str, tuple[float, str]] = {}
    for e in result.trace.of_kind("attempt_success"):
        if e.data["attempt"] in starts:
            ends[e.data["attempt"]] = (e.time, "ok")
    for e in result.trace.of_kind("attempt_failed"):
        if e.data["attempt"] in starts:
            ends[e.data["attempt"]] = (e.time, "fail")
    for e in result.trace.of_kind("attempt_killed_node_lost"):
        if e.data["attempt"] in starts:
            ends[e.data["attempt"]] = (e.time, "killed")
    span = max(result.elapsed, 1e-9)
    lines = [f"{task_filter} attempts (0 .. {span:.0f}s):"]
    for attempt in sorted(starts):
        t0 = starts[attempt]
        t1, state = ends.get(attempt, (result.end_time, "ok"))
        a = int(t0 / span * GANTT_WIDTH)
        b = max(a + 1, int(t1 / span * GANTT_WIDTH))
        mark = {"ok": "#", "fail": "x", "killed": "k"}[state]
        bar = " " * a + mark * (b - a)
        lines.append(f"  {attempt:16s} |{bar:<{GANTT_WIDTH}}| {state}")
    return "\n".join(lines)
