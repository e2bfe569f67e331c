"""Export job traces and results to JSON for external analysis."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.metrics.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import JobResult

__all__ = ["export_result_json", "result_summary", "trace_records"]


def trace_records(trace: Trace) -> list[dict[str, Any]]:
    """Flatten trace events into JSON-serialisable records, in log
    order."""
    return list(trace.iter_records())


def result_summary(result: "JobResult") -> dict[str, Any]:
    """Compact job summary (no per-event detail)."""
    return {
        "job_name": result.job_name,
        "workload": result.workload,
        "policy": result.policy,
        "success": result.success,
        "elapsed": result.elapsed,
        "start_time": result.start_time,
        "end_time": result.end_time,
        "counters": dict(result.counters),
        "trace": result.trace.summary(),
    }


def export_result_json(result: "JobResult", path: str | Path) -> Path:
    """Write a full job report as JSON; returns the path written."""
    payload: dict[str, Any] = {
        "summary": result_summary(result),
        "events": trace_records(result.trace),
        "series": {name: [{"time": t, "value": v} for t, v in points]
                   for name, points in result.trace.series.items()},
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path
