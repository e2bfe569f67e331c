"""Opt-in profiling for simulation runs (``REPRO_PROFILE``).

Profiling is wired through the environment, like the runner's other
knobs, so it reaches trials running inside worker processes without
any argument plumbing:

- ``REPRO_PROFILE=1``: wrap the run in :mod:`cProfile` and print the
  top functions by cumulative time to stderr.
- ``REPRO_PROFILE=/path/prefix``: additionally dump raw pstats to
  ``/path/prefix-<tag>.pstats`` for ``snakeviz``/``pstats`` analysis.

:func:`subsystem_counts` complements the function-level view with the
simulation's own accounting: per-kind event counts from
:meth:`~repro.metrics.trace.Trace.summary`, grouped by subsystem, plus
the flow scheduler's recompute counters — the numbers that say *which*
layer of the model the time went into.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.trace import Trace

__all__ = ["flow_stats", "maybe_profile", "periodic_times",
           "profiling_enabled", "record_flow_stats", "reset_periodic_times",
           "subsystem_counts", "wrap_periodic"]

#: Trace-event kind prefix -> subsystem label for the profile report.
_SUBSYSTEMS = {
    "flow": "flows",
    "hdfs": "hdfs",
    "attempt": "mapreduce",
    "map": "mapreduce",
    "reduce": "mapreduce",
    "task": "mapreduce",
    "job": "mapreduce",
    "shuffle": "mapreduce",
    "fetch": "mapreduce",
    "speculative": "mapreduce",
    "alg": "alm",
    "sfm": "alm",
    "fcm": "alm",
    "iss": "baselines",
    "node": "cluster",
    "fault": "cluster",
    "container": "yarn",
    "rm": "yarn",
    "am": "yarn",
}


def profiling_enabled() -> bool:
    return os.environ.get("REPRO_PROFILE", "") not in ("", "0")


#: name -> [calls, total seconds] for periodic callbacks, accumulated
#: by the wrappers :meth:`~repro.sim.core.Simulator.periodic` installs
#: when profiling is enabled. Name-keyed, so the per-NM heartbeats
#: aggregate per node while cluster-wide daemons report as single rows
#: — the view that says which *daemon* is the next hot loop, which
#: cProfile's per-function rows cannot.
_PERIODIC_TIMES: dict[str, list] = {}


def wrap_periodic(fn, name: str | None):
    """Wrap a periodic callback so its wall time accrues under
    ``name``. The wrapper passes the return value through unchanged
    (periodics stop on ``False``) and adds two clock reads per tick."""
    import time

    bucket = _PERIODIC_TIMES.setdefault(name or "<unnamed>", [0, 0.0])
    perf_counter = time.perf_counter

    def timed():
        t0 = perf_counter()
        try:
            return fn()
        finally:
            bucket[0] += 1
            bucket[1] += perf_counter() - t0

    return timed


#: tag -> flow-scheduler counter snapshot (``FlowScheduler.stats``),
#: recorded at the end of profiled runs. Where :data:`_PERIODIC_TIMES`
#: says which daemon the wall time went into, these say how much
#: *refill* work the flow scheduler did: fill rounds executed, flows
#: whose rate was recomputed, and (columnar scheduler) how many
#: whole-column vector operations those refills cost.
_FLOW_STATS: dict[str, dict] = {}


def record_flow_stats(tag: str, stats: dict) -> None:
    """Snapshot a flow scheduler's counters under ``tag`` for the
    profile report (keys accumulate across same-tag runs)."""
    bucket = _FLOW_STATS.setdefault(tag, {})
    for key, value in stats.items():
        bucket[key] = bucket.get(key, 0) + value


def flow_stats() -> dict[str, dict]:
    return {tag: dict(stats) for tag, stats in _FLOW_STATS.items()}


def periodic_times(top: int | None = None) -> list[tuple[str, int, float]]:
    """``(name, calls, total_seconds)`` rows, most expensive first."""
    rows = sorted(((name, calls, secs) for name, (calls, secs) in _PERIODIC_TIMES.items()),
                  key=lambda row: -row[2])
    return rows[:top] if top else rows


def reset_periodic_times() -> None:
    _PERIODIC_TIMES.clear()
    _FLOW_STATS.clear()


@contextmanager
def maybe_profile(tag: str) -> Iterator[None]:
    """Profile the enclosed block when ``REPRO_PROFILE`` is set;
    otherwise a zero-cost no-op."""
    raw = os.environ.get("REPRO_PROFILE", "")
    if raw in ("", "0"):
        yield
        return
    reset_periodic_times()
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield
    finally:
        prof.disable()
        if raw != "1":
            prof.dump_stats(f"{raw}-{tag}.pstats")
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats("cumulative").print_stats(15)
        print(f"--- profile [{tag}] ---", file=sys.stderr)
        print(buf.getvalue(), file=sys.stderr)
        rows = periodic_times(top=10)
        if rows:
            print(f"--- periodic callbacks [{tag}] (top {len(rows)} by total time) ---",
                  file=sys.stderr)
            for name, calls, secs in rows:
                print(f"  {secs * 1e3:10.2f} ms {calls:>10} calls  {name}", file=sys.stderr)
        if _FLOW_STATS:
            print(f"--- flow scheduler counters [{tag}] ---", file=sys.stderr)
            for name, stats in sorted(_FLOW_STATS.items()):
                refill = ", ".join(
                    f"{key}={stats[key]}"
                    for key in ("filling_rounds", "recomputed_flows",
                                "column_ops", "recomputes", "timer_reuses")
                    if key in stats)
                print(f"  {name}: {refill}", file=sys.stderr)


def subsystem_counts(trace: "Trace") -> dict[str, int]:
    """Trace-event counts grouped by subsystem (kind prefix)."""
    out: dict[str, int] = {}
    for kind, count in trace.summary()["kinds"].items():
        prefix = kind.split("_", 1)[0].split(".", 1)[0]
        label = _SUBSYSTEMS.get(prefix, "other")
        out[label] = out.get(label, 0) + count
    return dict(sorted(out.items()))
