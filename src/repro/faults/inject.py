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
    "kill_am_at_progress",
    "kill_maps_at_time",
    "kill_node_at_progress",
    "kill_node_at_time",
    "kill_reduce_at_progress",
]

#: Poll interval for progress-triggered faults.
_POLL = 0.25


def _require(condition: bool, field_name: str, message: str) -> None:
    """Uniform install-time validation: every fault names the offending
    field so a bad chaos schedule fails loudly, not 2000 s into a run."""
    if not condition:
        raise SimulationError(f"{field_name}: {message}")


@dataclass
class EventTrigger:
    """Fire on the ``occurrence``-th trace event of ``kind`` (filtered
    by ``match`` on the event's data), then wait ``delay`` seconds.

    This is the "second crash 10 s after the first ``node_lost``"
    trigger: event-driven via :meth:`Trace.subscribe`, not polling, so
    it fires at the exact log instant and stays deterministic.
    """

    kind: str
    delay: float = 0.0
    occurrence: int = 1
    match: dict[str, Any] | None = None

    def validate(self, prefix: str) -> None:
        _require(bool(self.kind), f"{prefix}.kind", "must name a trace event kind")
        _require(self.delay >= 0, f"{prefix}.delay", f"must be >= 0, got {self.delay}")
        _require(self.occurrence >= 1, f"{prefix}.occurrence",
                 f"must be >= 1, got {self.occurrence}")

    def matches(self, event) -> bool:
        return not self.match or all(event.data.get(k) == v for k, v in self.match.items())


def _wait_for_event(rt: "MapReduceRuntime", trigger: EventTrigger):
    """Generator: suspend until the trigger's event (+delay) arrives."""
    armed = rt.sim.event()
    seen = 0

    def on_event(te) -> None:
        nonlocal seen
        if not trigger.matches(te):
            return
        seen += 1
        if seen == trigger.occurrence and not armed.triggered:
            armed.succeed(te)

    rt.trace.subscribe(trigger.kind, on_event)
    yield armed
    rt.trace.unsubscribe(trigger.kind, on_event)
    if trigger.delay > 0:
        yield rt.sim.timeout(trigger.delay)


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
    reason: str = "injected-oom"
    repeat: int = 1
    fired_at: float | None = field(default=None, init=False)
    fired_times: list[float] = field(default_factory=list, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        _require(0 <= self.at_progress <= 1, "TaskFault.at_progress",
                 f"must be in [0, 1], got {self.at_progress}")
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
                attempt.kill(self.reason)
                if len(self.fired_times) >= self.repeat:
                    return
            yield rt.sim.timeout(_POLL)


@dataclass
class NodeFault:
    """Take a node down at a time, progress or trace-event trigger.

    ``target`` selects the victim:

    - ``"reducer"`` — the node hosting the running attempt of reduce
      task ``reduce_task_index`` (Figs. 3, 9, 10);
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
    reduce_task_index: int = 0
    duration: float | None = None
    after: EventTrigger | None = None
    fired_at: float | None = field(default=None, init=False)
    recovered_at: float | None = field(default=None, init=False)
    victim_name: str | None = field(default=None, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        triggers = sum(x is not None for x in (self.at_time, self.at_progress, self.after))
        _require(triggers == 1, "NodeFault.at_time/at_progress/after",
                 f"specify exactly one trigger, got {triggers}")
        _require(self.mode in ("network", "crash"), "NodeFault.mode",
                 f"must be 'network' or 'crash', got {self.mode!r}")
        if self.at_time is not None:
            _require(self.at_time >= 0, "NodeFault.at_time",
                     f"must be >= 0, got {self.at_time}")
        if self.at_progress is not None:
            _require(0 <= self.at_progress <= 1, "NodeFault.at_progress",
                     f"must be in [0, 1], got {self.at_progress}")
        if self.after is not None:
            self.after.validate("NodeFault.after")
        if self.duration is not None:
            _require(self.duration > 0, "NodeFault.duration",
                     f"must be > 0, got {self.duration}")
        _require(self.reduce_task_index >= 0, "NodeFault.reduce_task_index",
                 f"must be >= 0, got {self.reduce_task_index}")
        if isinstance(self.target, int):
            _require(0 <= self.target < len(rt.workers), "NodeFault.target",
                     f"worker index out of range [0, {len(rt.workers)})")
        else:
            _require(self.target in ("reducer", "map-only"), "NodeFault.target",
                     f"must be 'reducer', 'map-only' or a worker index, got {self.target!r}")
        rt.sim.process(self._watch(rt), name=f"fault:node:{self.target}")

    def _watch(self, rt: "MapReduceRuntime"):
        if self.after is not None:
            yield from _wait_for_event(rt, self.after)
        elif self.at_time is not None:
            yield rt.sim.timeout(self.at_time)
        else:
            while rt.am.reduce_phase_progress() < self.at_progress:
                if rt.am._finished:
                    rt.trace.log("fault_skipped", fault=f"node-{self.mode}",
                                 reason="job finished before trigger progress")
                    return
                yield rt.sim.timeout(_POLL)
        victim = self._pick(rt)
        if victim is None:
            rt.trace.log("fault_skipped", fault=f"node-{self.mode}",
                         reason=f"no victim for target {self.target!r}")
            return
        down = not victim.alive if self.mode == "crash" else not victim.network_up
        if down:
            rt.trace.log("fault_skipped", fault=f"node-{self.mode}",
                         node=victim.name, reason="victim already down")
            return
        self.fired_at = rt.sim.now
        self.victim_name = victim.name
        rt.trace.log("fault_injected", fault=f"node-{self.mode}", node=victim.name)
        if self.mode == "crash":
            rt.cluster.crash_node(victim)
        else:
            rt.cluster.stop_network(victim)
        if self.duration is None:
            return
        yield rt.sim.timeout(self.duration)
        self.recovered_at = rt.sim.now
        rt.trace.log("fault_recovered", fault=f"node-{self.mode}", node=victim.name)
        if self.mode == "crash":
            rt.cluster.restart_node(victim)
        else:
            rt.cluster.restore_network(victim)

    def _pick(self, rt: "MapReduceRuntime"):
        if isinstance(self.target, int):
            return rt.workers[self.target]
        if self.target == "reducer":
            if self.reduce_task_index < len(rt.am.reduce_tasks):
                task = rt.am.reduce_tasks[self.reduce_task_index]
                running = task.running_attempts()
                if running:
                    return running[0].node
            # Fall back to any node hosting a reducer.
            for t in rt.am.reduce_tasks:
                if t.running_attempts():
                    return t.running_attempts()[0].node
            return None
        if self.target == "map-only":
            reducer_nodes = {
                a.node for t in rt.am.reduce_tasks for a in t.running_attempts()
            }
            candidates = [
                (len(rt.am.registry.on_node(n)), n)
                for n in rt.workers
                if n.reachable and n not in reducer_nodes
                and len(rt.am.registry.on_node(n)) > 0
            ]
            if not candidates:
                # Every node hosts a reducer: fall back to the node
                # whose loss matters least directly (fewest reducers,
                # most MOFs) so the experiment still exercises the
                # lost-MOF path.
                candidates = [
                    (len(rt.am.registry.on_node(n)), n)
                    for n in rt.workers
                    if n.reachable and len(rt.am.registry.on_node(n)) > 0
                ]
                if not candidates:
                    return None
            candidates.sort(key=lambda cn: (-cn[0], cn[1].node_id))
            return candidates[0][1]
        raise SimulationError(f"unknown target {self.target!r}")


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
    mode: str = "network"
    stagger: float = 0.0
    duration: float | None = None
    fired_at: float | None = field(default=None, init=False)
    victim_names: list[str] = field(default_factory=list, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        _require(self.at_time >= 0, "RackFault.at_time",
                 f"must be >= 0, got {self.at_time}")
        _require(self.mode in ("network", "crash"), "RackFault.mode",
                 f"must be 'network' or 'crash', got {self.mode!r}")
        _require(0 <= self.rack_index < len(rt.cluster.racks), "RackFault.rack_index",
                 f"cluster has only {len(rt.cluster.racks)} racks")
        if self.count is not None:
            _require(self.count >= 1, "RackFault.count",
                     f"must be >= 1, got {self.count}")
        _require(self.stagger >= 0, "RackFault.stagger",
                 f"must be >= 0, got {self.stagger}")
        if self.duration is not None:
            _require(self.duration > 0, "RackFault.duration",
                     f"must be > 0, got {self.duration}")
        rt.sim.process(self._watch(rt), name=f"fault:rack:{self.rack_index}")

    def _watch(self, rt: "MapReduceRuntime"):
        yield rt.sim.timeout(self.at_time)
        members = [n for n in rt.workers if n.rack.rack_id == self.rack_index]
        victims = [n for n in members if n.reachable]
        if self.count is not None:
            victims = victims[: self.count]
        if not victims:
            rt.trace.log("fault_skipped", fault=f"rack-{self.mode}",
                         rack=self.rack_index, reason="no reachable workers in rack")
            return
        self.fired_at = rt.sim.now
        for i, victim in enumerate(victims):
            if i > 0 and self.stagger > 0:
                yield rt.sim.timeout(self.stagger)
            if not victim.reachable:
                continue  # an earlier fault got there first
            self.victim_names.append(victim.name)
            rt.trace.log("fault_injected", fault=f"rack-{self.mode}",
                         node=victim.name, rack=self.rack_index)
            if self.mode == "crash":
                rt.cluster.crash_node(victim)
            else:
                rt.cluster.stop_network(victim)
        if self.duration is None:
            return
        yield rt.sim.timeout(self.duration)
        for victim in victims:
            rt.trace.log("fault_recovered", fault=f"rack-{self.mode}",
                         node=victim.name, rack=self.rack_index)
            if self.mode == "crash":
                rt.cluster.restart_node(victim)
            else:
                rt.cluster.restore_network(victim)


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
        _require(self.at_time >= 0, "PartitionFault.at_time",
                 f"must be >= 0, got {self.at_time}")
        _require(self.duration > 0, "PartitionFault.duration",
                 f"must be > 0, got {self.duration}")
        for idx in self.node_indices:
            _require(0 <= idx < len(rt.workers), "PartitionFault.node_indices",
                     f"worker index {idx} out of range [0, {len(rt.workers)})")
        rt.sim.process(self._watch(rt), name=f"fault:partition:{len(self.node_indices)}")

    def _watch(self, rt: "MapReduceRuntime"):
        yield rt.sim.timeout(self.at_time)
        victims = [rt.workers[i] for i in self.node_indices]
        live = [n for n in victims if n.reachable]
        if not live:
            rt.trace.log("fault_skipped", fault="partition",
                         reason="all targets already unreachable")
            return
        self.fired_at = rt.sim.now
        for victim in live:
            self.victim_names.append(victim.name)
            rt.trace.log("fault_injected", fault="partition", node=victim.name,
                         duration=self.duration)
            rt.cluster.stop_network(victim)
        yield rt.sim.timeout(self.duration)
        self.recovered_at = rt.sim.now
        for victim in live:
            rt.trace.log("fault_recovered", fault="partition", node=victim.name)
            rt.cluster.restore_network(victim)


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
        _require(self.at_time >= 0, "MapWaveFault.at_time",
                 f"must be >= 0, got {self.at_time}")
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
        triggers = sum(x is not None for x in (self.at_time, self.at_progress, self.after))
        _require(triggers == 1, "AMFault.at_time/at_progress/after",
                 f"specify exactly one trigger, got {triggers}")
        if self.at_time is not None:
            _require(self.at_time >= 0, "AMFault.at_time",
                     f"must be >= 0, got {self.at_time}")
        if self.at_progress is not None:
            _require(0 <= self.at_progress <= 1, "AMFault.at_progress",
                     f"must be in [0, 1], got {self.at_progress}")
        if self.after is not None:
            self.after.validate("AMFault.after")
        _require(self.repeat >= 1, "AMFault.repeat",
                 f"must be >= 1, got {self.repeat}")
        _require(self.repeat_gap > 0, "AMFault.repeat_gap",
                 f"must be > 0, got {self.repeat_gap}")
        rt.sim.process(self._watch(rt), name="fault:am-crash")

    def _watch(self, rt: "MapReduceRuntime"):
        if self.after is not None:
            yield from _wait_for_event(rt, self.after)
        elif self.at_time is not None:
            yield rt.sim.timeout(self.at_time)
        else:
            while rt.am.reduce_phase_progress() < self.at_progress:
                if rt.job_done.triggered:
                    rt.trace.log("fault_skipped", fault="am-crash",
                                 reason="job finished before trigger progress")
                    return
                yield rt.sim.timeout(_POLL)
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

    def add(self, fault) -> "FaultInjector":
        self.faults.append(fault)
        return self

    def install(self, rt: "MapReduceRuntime") -> None:
        if self._installed_on is not None:
            raise SimulationError(
                "FaultInjector.install: already installed onto a runtime; "
                "build a fresh injector (and fresh faults) per run")
        self._installed_on = rt
        for f in self.faults:
            f.install(rt)


# -- convenience constructors used by the experiment drivers ----------------

def kill_reduce_at_progress(progress: float, task_index: int = 0) -> TaskFault:
    return TaskFault(TaskType.REDUCE, task_index, progress)


def kill_node_at_time(at_time: float, target: str | int = "reducer", mode: str = "network") -> NodeFault:
    return NodeFault(target=target, at_time=at_time, mode=mode)


def kill_node_at_progress(progress: float, target: str | int = "reducer", mode: str = "network") -> NodeFault:
    return NodeFault(target=target, at_progress=progress, mode=mode)


def kill_maps_at_time(count: int, at_time: float) -> MapWaveFault:
    return MapWaveFault(count=count, at_time=at_time)


def kill_am_at_progress(progress: float, repeat: int = 1) -> AMFault:
    return AMFault(at_progress=progress, repeat=repeat)
