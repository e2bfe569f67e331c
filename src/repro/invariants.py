"""Simulation-wide invariant checkers.

A fault schedule that merely slows a job down is business as usual; one
that wedges the event loop, leaks containers, loses reduce output bytes
or corrupts NameNode metadata is a simulator bug. These checkers encode
what must hold after *every* run — fault-free or chaotic — and are the
oracle of the chaos campaign (:mod:`repro.faults.chaos`).

Each checker is ``fn(rt, result) -> list[str]`` where ``rt`` is the
:class:`~repro.mapreduce.job.MapReduceRuntime` *after* ``rt.run()``
returned ``result``. An empty list means the invariant holds.

Every experiment trial (:func:`repro.experiments.common.run_benchmark_trial`)
runs the suite and records its violations, which the trial runner
rejects; :func:`check_invariants` also runs standalone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.mapreduce.tasks import AttemptState
from repro.sim.core import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import JobResult, MapReduceRuntime

__all__ = [
    "INVARIANTS",
    "InvariantViolation",
    "check_invariants",
    "state_probe",
]

#: Relative tolerance for byte accounting (float accumulation error).
_REL_TOL = 1e-6
#: Simulated seconds granted after job end for in-flight teardown
#: (speculative-loser kills, flow cancels) to drain before checking.
_SETTLE_SECONDS = 5.0


class InvariantViolation(SimulationError):
    """One or more post-run invariants failed."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("; ".join(violations))
        self.violations = list(violations)


# -- individual checkers -----------------------------------------------------

def check_termination(rt: "MapReduceRuntime", result: "JobResult") -> list[str]:
    """The job must end for a *modelled* reason: success, a task
    exhausting its attempt budget, or the AM exhausting its incarnation
    budget. A stall (frozen event loop / frozen progress) or an
    unexplained failure is a simulator bug."""
    out = []
    if result.counters.get("stalled"):
        out.append("termination: run stalled — "
                   + str(result.counters.get("stall_reason", "unknown")))
    elif (not result.success and not rt.trace.of_kind("task_failed")
          and not rt.trace.of_kind("am_attempts_exhausted")):
        out.append("termination: job failed without a task_failed or "
                   "am_attempts_exhausted cause")
    return out


def check_byte_conservation(rt: "MapReduceRuntime", result: "JobResult") -> list[str]:
    """On success, every reducer must have consumed its full partition
    (``shuffle_bytes * partition_weight``) exactly once — across however
    many attempts, migrations and log-resumes it took — and produced
    ``input * reduce_selectivity`` output bytes. Lost or double-counted
    bytes mean a recovery path dropped or replayed work."""
    if not result.success:
        return []
    out = []
    am = rt.am
    wl = rt.workload
    if len(am.reduce_commits) != am.num_reduces:
        out.append(f"bytes: {len(am.reduce_commits)} commit records for "
                   f"{am.num_reduces} reducers")
    for task in am.reduce_tasks:
        rec = am.reduce_commits.get(task.task_id)
        if rec is None:
            continue  # already reported above
        expected = wl.shuffle_bytes * float(am.partition_weights[task.partition_index])
        covered = rec["input_bytes"]
        resume = rec["resume_fraction"]
        if rec["mode"] == "fcm" and resume < 1.0:
            # FCM streams only the un-resumed remainder; logs covered the rest.
            covered = rec["input_bytes"] / (1.0 - resume)
        tol = max(1.0, _REL_TOL * expected)
        if abs(covered - expected) > tol:
            out.append(f"bytes: {task.name} covered {covered:.1f} of "
                       f"{expected:.1f} expected input bytes "
                       f"(mode={rec['mode']}, resume={resume:.3f})")
        expected_out = rec["input_bytes"] * wl.reduce_selectivity
        if abs(rec["output_bytes"] - expected_out) > max(1.0, _REL_TOL * expected_out):
            out.append(f"bytes: {task.name} wrote {rec['output_bytes']:.1f}, "
                       f"expected {expected_out:.1f} output bytes")
    return out


def check_no_orphans(rt: "MapReduceRuntime", result: "JobResult") -> list[str]:
    """After the job ends nothing job-owned may still be executing:
    no live attempt (or attempt-child) process, no active flow, no armed
    flow-scheduler timer. Infrastructure daemons (heartbeats, liveness
    monitor) legitimately run forever and are not counted."""
    if result.counters.get("stalled"):
        return []  # a wedged run leaves work in flight by definition
    out = []
    seen: set[int] = set()
    for am in rt.am_incarnations:
        for task in am.map_tasks + am.reduce_tasks:
            for attempt in task.attempts:
                if id(attempt) in seen:
                    continue  # adopted attempts appear under both AMs
                seen.add(id(attempt))
                if attempt.process is not None and attempt.process.is_alive:
                    out.append(f"orphans: attempt {attempt.attempt_id} "
                               f"({attempt.state.value}) still running")
                for child in attempt._children:
                    if child.is_alive:
                        out.append(f"orphans: child process of {attempt.attempt_id} "
                                   "still running")
    flows = rt.cluster.flows
    active = tuple(flows.active_flows)
    if active:
        names = ", ".join(f.name for f in active[:5])
        out.append(f"orphans: {len(active)} flows still active ({names})")
    timer = getattr(flows, "_timer", None)
    if not active and timer is not None and not getattr(timer, "cancelled", False):
        out.append("orphans: flow-scheduler timer armed with no active flows")
    return out


def check_containers_released(rt: "MapReduceRuntime", result: "JobResult") -> list[str]:
    """Every container must be back with the RM: a surviving NM with
    nonzero used memory after job end is a leak that starves every
    later job on a shared cluster."""
    if result.counters.get("stalled"):
        return []
    out = []
    for nm in rt.rm.node_managers.values():
        if nm.lost:
            continue  # its containers were force-killed with the node
        if nm.used_mb != 0 or nm.containers:
            held = ", ".join(f"c{c.container_id}" for c in nm.containers[:5])
            out.append(f"containers: {nm.node.name} still holds "
                       f"{nm.used_mb}MB ({held})")
    return out


def check_hdfs_consistency(rt: "MapReduceRuntime", result: "JobResult") -> list[str]:
    """NameNode metadata must agree with DataNode disks after any mix
    of crashes, partitions and rejoins: no dead node in a replica list,
    no duplicate replicas, and every listed live replica physically on
    that node's disk."""
    out = []
    for f in rt.hdfs._files.values():
        for b in f.blocks:
            seen = set()
            for node in b.replicas:
                if id(node) in seen:
                    out.append(f"hdfs: blk_{b.block_id} of {b.path} lists "
                               f"{node.name} twice")
                seen.add(id(node))
                if not node.alive:
                    out.append(f"hdfs: blk_{b.block_id} of {b.path} has dead "
                               f"replica {node.name}")
                elif not node.has_file(rt.hdfs._replica_path(b)):
                    out.append(f"hdfs: blk_{b.block_id} of {b.path} replica "
                               f"missing from {node.name}'s disk")
    return out


def check_trace_monotonic(rt: "MapReduceRuntime", result: "JobResult") -> list[str]:
    """Trace event times must never decrease: the differential verifier
    (:mod:`repro.verify`) diffs event streams positionally, so an event
    logged in the past — a kernel dispatching a stale timer, a process
    resumed out of order — would corrupt every downstream comparison,
    not just this run."""
    events = rt.trace.events
    for i in range(1, len(events)):
        if events[i].time < events[i - 1].time:
            return [f"trace: event {i} ({events[i].kind}) at t={events[i].time} "
                    f"logged after {events[i - 1].kind} at t={events[i - 1].time}"]
    return []


def check_am_singleton(rt: "MapReduceRuntime", result: "JobResult") -> list[str]:
    """At most one live AM per job, ever: every incarnation except the
    newest must have crashed before its successor was launched. Two
    concurrently-live AMs would double-schedule every task."""
    out = []
    incarnations = rt.am_incarnations
    live = [am for am in incarnations if not am._crashed]
    if len(live) > 1:
        out.append(f"am_singleton: {len(live)} non-crashed AM incarnations "
                   f"(attempts {[am.am_attempt for am in live]})")
    if live and live[-1] is not rt.am:
        out.append("am_singleton: live incarnation is not rt.am")
    for i, am in enumerate(incarnations):
        if am.am_attempt != i:
            out.append(f"am_singleton: incarnation {i} carries "
                       f"am_attempt={am.am_attempt}")
    return out


def check_am_no_orphans(rt: "MapReduceRuntime", result: "JobResult") -> list[str]:
    """After an AM restart nothing may be left dangling from the dead
    incarnation: its stashed orphan completion reports must be drained
    (replayed by the successor or torn down), and any attempt of its
    that is still RUNNING must have been adopted by the live AM."""
    if result.counters.get("stalled"):
        return []
    out = []
    incarnations = rt.am_incarnations
    for am in incarnations:
        if not am._crashed:
            continue
        if am._orphan_reports:
            out.append(f"am_orphans: AM attempt {am.am_attempt} still holds "
                       f"{len(am._orphan_reports)} undrained completion reports")
        for task in am.map_tasks + am.reduce_tasks:
            for attempt in task.running_attempts():
                if attempt.am is not rt.am:
                    out.append(f"am_orphans: attempt {attempt.attempt_id} of dead "
                               f"AM {am.am_attempt} running but not adopted")
    return out


INVARIANTS: dict[str, Callable] = {
    "termination": check_termination,
    "byte_conservation": check_byte_conservation,
    "no_orphans": check_no_orphans,
    "containers_released": check_containers_released,
    "hdfs_consistency": check_hdfs_consistency,
    "trace_monotonic": check_trace_monotonic,
    "am_singleton": check_am_singleton,
    "am_no_orphans": check_am_no_orphans,
}


# -- entry points ------------------------------------------------------------

def check_invariants(
    rt: "MapReduceRuntime",
    result: "JobResult",
    names: list[str] | None = None,
) -> list[str]:
    """Run the selected (default: all) checkers; return all violations.

    A run that did not stall first settles: ``sim.run(until=am.done)``
    returns the instant the job-end event fires, with the kill
    interrupts and flow cancels issued at that instant still in the
    heap; draining a few simulated seconds separates "teardown in
    flight" from genuinely leaked work."""
    if not result.counters.get("stalled") and rt.sim.peek() != float("inf"):
        rt.sim.run(until=rt.sim.now + _SETTLE_SECONDS)
    selected = names if names is not None else list(INVARIANTS)
    violations: list[str] = []
    for name in selected:
        try:
            checker = INVARIANTS[name]
        except KeyError:
            raise SimulationError(f"unknown invariant: {name!r}") from None
        violations.extend(checker(rt, result))
    return violations


def state_probe(rt: "MapReduceRuntime") -> dict:
    """Debug helper: summarise post-run state for reproducer reports."""
    running = [
        a.attempt_id
        for t in rt.am.map_tasks + rt.am.reduce_tasks
        for a in t.attempts
        if a.process is not None and a.process.is_alive
    ]
    return {
        "now": rt.sim.now,
        "running_attempts": running,
        "active_flows": [f.name for f in rt.cluster.flows.active_flows],
        "vanished": sum(
            1 for t in rt.am.map_tasks + rt.am.reduce_tasks
            for a in t.attempts if a.state is AttemptState.VANISHED
        ),
    }
