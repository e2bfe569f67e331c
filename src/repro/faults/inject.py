"""Fault injector implementations.

Every injector follows one contract:

- ``install(rt)`` validates the spec (raising
  :class:`~repro.sim.core.SimulationError` naming the offending field)
  and spawns a watcher process on the runtime's simulator.
- The watcher waits for its trigger — a wall-clock time, a job-progress
  threshold, or an :class:`EventTrigger` keyed on trace events — then
  fires, logging a ``fault_injected`` trace event.
- A watcher that cannot fire (victim already dead, task already done)
  logs ``fault_skipped`` with a reason instead of returning silently,
  so chaos campaigns can distinguish "fault never fired" from "fault
  fired and nothing broke".
- Faults with a ``duration`` undo themselves (network heal, node
  restart, capacity restore) and log ``fault_recovered``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.mapreduce.tasks import TaskType
from repro.sim.core import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import MapReduceRuntime

__all__ = [
    "AMFault",
    "EventTrigger",
    "FaultInjector",
    "MapWaveFault",
    "NodeFault",
    "PartitionFault",
    "RackFault",
    "TaskFault",
    "kill_maps_at_time",
    "kill_node_at_progress",
    "kill_reduce_at_progress",
]

#: Poll interval for progress-triggered faults.
_POLL = 0.25

#: Outage mode -> (``Cluster`` method taking a node down, method
#: bringing it back).
_OUTAGE = {
    "network": ("stop_network", "restore_network"),
    "crash": ("crash_node", "restart_node"),
}


def _require(condition: bool, field_name: str, message: str) -> None:
    """Uniform install-time validation: every fault names the offending
    field so a bad chaos schedule fails loudly, not 2000 s into a run."""
    if not condition:
        raise SimulationError(f"{field_name}: {message}")


def _check_at_time(owner: str, at_time: float) -> None:
    _require(at_time >= 0, f"{owner}.at_time", f"must be >= 0, got {at_time}")


def _check_progress(owner: str, at_progress: float) -> None:
    _require(0 <= at_progress <= 1, f"{owner}.at_progress",
             f"must be in [0, 1], got {at_progress}")


def _check_duration(owner: str, duration: float | None) -> None:
    if duration is not None:
        _require(duration > 0, f"{owner}.duration", f"must be > 0, got {duration}")


def _check_worker(rt: "MapReduceRuntime", field_name: str, index: int) -> None:
    _require(0 <= index < len(rt.workers), field_name,
             f"worker index {index} out of range [0, {len(rt.workers)})")


def _check_mode(owner: str, mode: str) -> None:
    _require(mode in _OUTAGE, f"{owner}.mode",
             f"must be 'network' or 'crash', got {mode!r}")


def _outage(rt: "MapReduceRuntime", node, mode: str, fault: str, down: bool,
            **data: Any) -> None:
    """Log, then apply, the start (``down``) or the end of one node's
    outage: network stop/restore or machine crash/restart per ``mode``."""
    rt.trace.log("fault_injected" if down else "fault_recovered",
                 fault=fault, node=node.name, **data)
    getattr(rt.cluster, _OUTAGE[mode][0 if down else 1])(node)


@dataclass
class EventTrigger:
    """Fire on the first trace event of ``kind``, then wait ``delay``
    seconds.

    This is the "second crash 10 s after the first ``node_lost``"
    trigger: event-driven via :meth:`Trace.subscribe`, not polling, so
    it fires at the exact log instant and stays deterministic.
    """

    kind: str
    delay: float = 0.0

    def validate(self, prefix: str) -> None:
        _require(bool(self.kind), f"{prefix}.kind", "must name a trace event kind")
        _require(self.delay >= 0, f"{prefix}.delay", f"must be >= 0, got {self.delay}")


def _check_trigger(fault) -> None:
    """Validate a fault's ``at_time | at_progress | after`` trigger:
    exactly one is set, and it is in range."""
    owner = type(fault).__name__
    triggers = sum(x is not None for x in (fault.at_time, fault.at_progress, fault.after))
    _require(triggers == 1, f"{owner}.at_time/at_progress/after",
             f"specify exactly one trigger, got {triggers}")
    if fault.at_time is not None:
        _check_at_time(owner, fault.at_time)
    if fault.at_progress is not None:
        _check_progress(owner, fault.at_progress)
    if fault.after is not None:
        fault.after.validate(f"{owner}.after")


def _await_trigger(rt: "MapReduceRuntime", fault, finished):
    """Generator: suspend until ``fault``'s trigger. Returns False if
    ``finished()`` reports the job over before an ``at_progress``
    trigger is reached, True once the trigger has fired."""
    if fault.after is not None:
        trigger = fault.after
        armed = rt.sim.event()

        def on_event(te) -> None:
            if not armed.triggered:
                armed.succeed(te)

        rt.trace.subscribe(trigger.kind, on_event)
        yield armed
        rt.trace.unsubscribe(trigger.kind, on_event)
        if trigger.delay > 0:
            yield rt.sim.timeout(trigger.delay)
    elif fault.at_time is not None:
        yield rt.sim.timeout(fault.at_time)
    else:
        while rt.am.reduce_phase_progress() < fault.at_progress:
            if finished():
                return False
            yield rt.sim.timeout(_POLL)
    return True


@dataclass
class TaskFault:
    """Inject an OOM into a task attempt at a progress point.

    ``at_progress`` is the attempt's own progress in [0, 1]; the paper's
    "failure at X% of the reduce phase" maps to the reduce attempt's
    progress because reducers span the whole phase.

    ``repeat`` makes the fault recurring: it keeps arming against fresh
    attempts of the same task, so with ``repeat=2`` the *recovery*
    attempt is OOM-killed too (the fault-during-recovery scenario).
    Each attempt is killed at most once.
    """

    task_type: TaskType = TaskType.REDUCE
    task_index: int = 0
    at_progress: float = 0.5
    repeat: int = 1
    fired_at: float | None = field(default=None, init=False)
    fired_times: list[float] = field(default_factory=list, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        _check_progress("TaskFault", self.at_progress)
        _require(self.task_index >= 0, "TaskFault.task_index",
                 f"must be >= 0, got {self.task_index}")
        _require(self.repeat >= 1, "TaskFault.repeat",
                 f"must be >= 1, got {self.repeat}")
        tasks = rt.am.map_tasks if self.task_type is TaskType.MAP else rt.am.reduce_tasks
        _require(self.task_index < len(tasks), "TaskFault.task_index",
                 f"job has only {len(tasks)} {self.task_type.value} tasks")
        rt.sim.process(self._watch(rt), name=f"fault:{self.task_type.value}{self.task_index}")

    def _watch(self, rt: "MapReduceRuntime"):
        tasks = rt.am.map_tasks if self.task_type is TaskType.MAP else rt.am.reduce_tasks
        task = tasks[self.task_index]
        killed: set[int] = set()
        while len(self.fired_times) < self.repeat:
            if task.is_finished or rt.am._finished:
                if not self.fired_times:
                    rt.trace.log("fault_skipped", fault="task-oom", task=task.name,
                                 reason="task finished before reaching trigger progress")
                return
            for attempt in task.running_attempts():
                if id(attempt) in killed or attempt.progress < self.at_progress:
                    continue
                killed.add(id(attempt))
                self.fired_times.append(rt.sim.now)
                if self.fired_at is None:
                    self.fired_at = rt.sim.now
                rt.trace.log("fault_injected", fault="task-oom", task=task.name,
                             attempt=attempt.attempt_id, progress=attempt.progress,
                             occurrence=len(self.fired_times))
                attempt.kill("injected-oom")
                if len(self.fired_times) >= self.repeat:
                    return
            yield rt.sim.timeout(_POLL)


@dataclass
class NodeFault:
    """Take a node down at a time, progress or trace-event trigger.

    ``target`` selects the victim:

    - ``"reducer"`` — the node hosting the running attempt of the
      lowest-indexed reduce task that has one (Figs. 3, 9, 10);
    - ``"map-only"`` — a node holding MOFs but no running ReduceTask
      (the spatial-amplification setup of Fig. 4 / Table II);
    - an ``int`` — that worker index directly.

    ``mode="network"`` stops network services (the paper's method);
    ``mode="crash"`` power-fails the machine. With ``duration`` the
    fault is transient: the partition heals (or the machine restarts,
    disk intact) after that many seconds and the node re-registers with
    the RM — the recovery path chaos campaigns stress.

    ``after`` replaces the time/progress trigger with an
    :class:`EventTrigger` (e.g. fire 10 s after the first
    ``node_lost``), which is how double-failure-during-recovery
    schedules are expressed.
    """

    target: str | int = "reducer"
    at_time: float | None = None
    at_progress: float | None = None
    mode: str = "network"
    duration: float | None = None
    after: EventTrigger | None = None
    fired_at: float | None = field(default=None, init=False)
    recovered_at: float | None = field(default=None, init=False)
    victim_name: str | None = field(default=None, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        _check_trigger(self)
        _check_mode("NodeFault", self.mode)
        _check_duration("NodeFault", self.duration)
        if isinstance(self.target, int):
            _check_worker(rt, "NodeFault.target", self.target)
        else:
            _require(self.target in ("reducer", "map-only"), "NodeFault.target",
                     f"must be 'reducer', 'map-only' or a worker index, got {self.target!r}")
        rt.sim.process(self._watch(rt), name=f"fault:node:{self.target}")

    def _watch(self, rt: "MapReduceRuntime"):
        fault = f"node-{self.mode}"
        if not (yield from _await_trigger(rt, self, lambda: rt.am._finished)):
            rt.trace.log("fault_skipped", fault=fault,
                         reason="job finished before trigger progress")
            return
        victim = self._pick(rt)
        if victim is None:
            rt.trace.log("fault_skipped", fault=fault,
                         reason=f"no victim for target {self.target!r}")
            return
        down = not victim.alive if self.mode == "crash" else not victim.network_up
        if down:
            rt.trace.log("fault_skipped", fault=fault,
                         node=victim.name, reason="victim already down")
            return
        self.fired_at = rt.sim.now
        self.victim_name = victim.name
        _outage(rt, victim, self.mode, fault, down=True)
        if self.duration is None:
            return
        yield rt.sim.timeout(self.duration)
        self.recovered_at = rt.sim.now
        _outage(rt, victim, self.mode, fault, down=False)

    def _pick(self, rt: "MapReduceRuntime"):
        if isinstance(self.target, int):
            return rt.workers[self.target]
        if self.target == "reducer":
            for task in rt.am.reduce_tasks:
                running = task.running_attempts()
                if running:
                    return running[0].node
            return None
        # "map-only": the reachable node holding the most MOFs and no
        # running reducer. If every such node hosts a reducer, fall back
        # to any MOF holder so the experiment still exercises the
        # lost-MOF path.
        reducer_nodes = {a.node for t in rt.am.reduce_tasks for a in t.running_attempts()}
        holders = [(len(rt.am.registry.on_node(n)), n) for n in rt.workers
                   if n.reachable and len(rt.am.registry.on_node(n)) > 0]
        candidates = [(mofs, n) for mofs, n in holders if n not in reducer_nodes] or holders
        if not candidates:
            return None
        return min(candidates, key=lambda cn: (-cn[0], cn[1].node_id))[1]


@dataclass
class RackFault:
    """Rack-correlated failure: take several nodes of one rack down at
    ``at_time``, ``stagger`` seconds apart (a ToR-switch death or a PDU
    trip — the correlated failure mode ATLAS observes in production).

    ``count=None`` fails every worker in the rack. With ``duration``
    the rack recovers (counted from the last member failure).
    """

    rack_index: int = 0
    count: int | None = None
    at_time: float = 60.0
    mode: str = "crash"
    stagger: float = 0.0
    duration: float | None = None
    fired_at: float | None = field(default=None, init=False)
    victim_names: list[str] = field(default_factory=list, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        _check_at_time("RackFault", self.at_time)
        _check_mode("RackFault", self.mode)
        _require(0 <= self.rack_index < len(rt.cluster.racks), "RackFault.rack_index",
                 f"cluster has only {len(rt.cluster.racks)} racks")
        if self.count is not None:
            _require(self.count >= 1, "RackFault.count",
                     f"must be >= 1, got {self.count}")
        _require(self.stagger >= 0, "RackFault.stagger",
                 f"must be >= 0, got {self.stagger}")
        _check_duration("RackFault", self.duration)
        rt.sim.process(self._watch(rt), name=f"fault:rack:{self.rack_index}")

    def _watch(self, rt: "MapReduceRuntime"):
        yield rt.sim.timeout(self.at_time)
        fault = f"rack-{self.mode}"
        victims = [n for n in rt.workers
                   if n.rack.rack_id == self.rack_index and n.reachable]
        if self.count is not None:
            victims = victims[: self.count]
        if not victims:
            rt.trace.log("fault_skipped", fault=fault,
                         rack=self.rack_index, reason="no reachable workers in rack")
            return
        self.fired_at = rt.sim.now
        for i, victim in enumerate(victims):
            if i > 0 and self.stagger > 0:
                yield rt.sim.timeout(self.stagger)
            if not victim.reachable:
                continue  # an earlier fault got there first
            self.victim_names.append(victim.name)
            _outage(rt, victim, self.mode, fault, down=True, rack=self.rack_index)
        if self.duration is None:
            return
        yield rt.sim.timeout(self.duration)
        for victim in victims:
            _outage(rt, victim, self.mode, fault, down=False, rack=self.rack_index)


@dataclass
class PartitionFault:
    """Transient network partition: the listed workers drop off the
    network at ``at_time`` and come back ``duration`` seconds later,
    files and local processes intact. Whether the RM declares them lost
    depends on ``duration`` vs the liveness timeout — both races are
    worth stressing.
    """

    node_indices: tuple[int, ...] = (0,)
    at_time: float = 60.0
    duration: float = 30.0
    fired_at: float | None = field(default=None, init=False)
    recovered_at: float | None = field(default=None, init=False)
    victim_names: list[str] = field(default_factory=list, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        _require(len(self.node_indices) > 0, "PartitionFault.node_indices",
                 "must list at least one worker index")
        _check_at_time("PartitionFault", self.at_time)
        _require(self.duration is not None, "PartitionFault.duration", "must be set")
        _check_duration("PartitionFault", self.duration)
        for idx in self.node_indices:
            _check_worker(rt, "PartitionFault.node_indices", idx)
        rt.sim.process(self._watch(rt), name=f"fault:partition:{len(self.node_indices)}")

    def _watch(self, rt: "MapReduceRuntime"):
        yield rt.sim.timeout(self.at_time)
        live = [rt.workers[i] for i in self.node_indices if rt.workers[i].reachable]
        if not live:
            rt.trace.log("fault_skipped", fault="partition",
                         reason="all targets already unreachable")
            return
        self.fired_at = rt.sim.now
        for victim in live:
            self.victim_names.append(victim.name)
            _outage(rt, victim, "network", "partition", down=True, duration=self.duration)
        yield rt.sim.timeout(self.duration)
        self.recovered_at = rt.sim.now
        for victim in live:
            _outage(rt, victim, "network", "partition", down=False)


@dataclass
class MapWaveFault:
    """Kill up to ``count`` running MapTask attempts at ``at_time``
    (Fig. 1's N-MapTask-failure experiment)."""

    count: int
    at_time: float
    killed: int = field(default=0, init=False)
    killed_tasks: list = field(default_factory=list, init=False)
    fired_at: float | None = field(default=None, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        _require(self.count >= 1, "MapWaveFault.count",
                 f"must be >= 1, got {self.count}")
        _check_at_time("MapWaveFault", self.at_time)
        rt.sim.process(self._watch(rt), name=f"fault:maps:{self.count}")

    def _watch(self, rt: "MapReduceRuntime"):
        yield rt.sim.timeout(self.at_time)
        self.fired_at = rt.sim.now
        for task in rt.am.map_tasks:
            if self.killed >= self.count:
                break
            for attempt in task.running_attempts():
                attempt.kill("injected-oom")
                self.killed += 1
                self.killed_tasks.append(task.name)
                break
        if self.killed == 0:
            rt.trace.log("fault_skipped", fault="map-wave",
                         reason="no running map attempts at trigger time")
            return
        rt.trace.log("fault_injected", fault="map-wave", count=self.killed)


@dataclass
class AMFault:
    """Crash the running :class:`MRAppMaster` (control-plane failure).

    The RM relaunches the AM after ``JobConf.am_restart_delay``, up to
    ``JobConf.am_max_attempts`` incarnations; the new AM recovers from
    the job-history log (or from scratch, per ``JobConf.am_recovery``).
    ``repeat`` kills that many successive incarnations — with
    ``repeat >= am_max_attempts`` this drives the job to AM-attempt
    exhaustion. ``repeat_gap`` is the delay between kills, counted from
    the moment the next incarnation is live.
    """

    at_time: float | None = None
    at_progress: float | None = None
    after: EventTrigger | None = None
    repeat: int = 1
    repeat_gap: float = 30.0
    fired_times: list[float] = field(default_factory=list, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        _check_trigger(self)
        _require(self.repeat >= 1, "AMFault.repeat",
                 f"must be >= 1, got {self.repeat}")
        _require(self.repeat_gap > 0, "AMFault.repeat_gap",
                 f"must be > 0, got {self.repeat_gap}")
        rt.sim.process(self._watch(rt), name="fault:am-crash")

    def _watch(self, rt: "MapReduceRuntime"):
        if not (yield from _await_trigger(rt, self, lambda: rt.job_done.triggered)):
            rt.trace.log("fault_skipped", fault="am-crash",
                         reason="job finished before trigger progress")
            return
        for k in range(self.repeat):
            if rt.job_done.triggered:
                rt.trace.log("fault_skipped", fault="am-crash",
                             reason="job finished before kill")
                return
            # Wait out a restart already in flight: you cannot crash an
            # AM that is not running.
            while rt.am.dead and not rt.job_done.triggered:
                yield rt.sim.timeout(_POLL)
            if rt.job_done.triggered or not rt.kill_am():
                rt.trace.log("fault_skipped", fault="am-crash",
                             reason="no live AM to kill")
                return
            self.fired_times.append(rt.sim.now)
            rt.trace.log("fault_injected", fault="am-crash",
                         am_attempt=rt.am.am_attempt, occurrence=k + 1)
            if k + 1 < self.repeat:
                yield rt.sim.timeout(self.repeat_gap)

    @property
    def fired_at(self) -> float | None:
        return self.fired_times[0] if self.fired_times else None


class FaultInjector:
    """Bundle of faults installed together onto one runtime.

    A bundle installs exactly once: fault objects carry mutable fired
    state, so re-installing them (onto the same or another runtime)
    silently corrupts both schedules — reject it loudly instead.
    """

    def __init__(self, *faults) -> None:
        self.faults = list(faults)
        self._installed_on = None

    def install(self, rt: "MapReduceRuntime") -> None:
        if self._installed_on is not None:
            raise SimulationError(
                "FaultInjector.install: already installed onto a runtime; "
                "build a fresh injector (and fresh faults) per run")
        self._installed_on = rt
        for f in self.faults:
            f.install(rt)


# -- convenience constructors used by the experiment drivers ----------------

def kill_reduce_at_progress(progress: float, **kw: Any) -> TaskFault:
    return TaskFault(TaskType.REDUCE, at_progress=progress, **kw)


def kill_node_at_progress(progress: float, **kw: Any) -> NodeFault:
    return NodeFault(at_progress=progress, **kw)


def kill_maps_at_time(count: int, at_time: float) -> MapWaveFault:
    return MapWaveFault(count=count, at_time=at_time)
