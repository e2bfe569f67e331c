"""Measurement plumbing: event traces, progress sampling, exports and
text reports."""

from repro.metrics.export import (
    export_result_json,
    result_summary,
    trace_records,
)
from repro.metrics.report import failure_timeline, progress_curve, task_gantt
from repro.metrics.trace import ProgressSampler, Trace, TraceEvent

__all__ = [
    "ProgressSampler",
    "Trace",
    "TraceEvent",
    "export_result_json",
    "failure_timeline",
    "progress_curve",
    "result_summary",
    "task_gantt",
    "trace_records",
]
