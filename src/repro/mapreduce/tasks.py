"""Task and task-attempt plumbing shared by Map- and ReduceTasks.

Failure-visibility semantics matter here and are modelled after YARN:

- An attempt whose *node is reachable* reports failures to the AM
  immediately (e.g. an injected out-of-memory kill).
- An attempt on a *dead or unreachable* node simply **vanishes** — the
  AM only learns about it when the RM's liveness monitor declares the
  node lost (or, for completed maps' MOFs, when reducers report fetch
  failures). This gap is the first leg of the paper's amplification
  timeline (Fig. 3).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Generator

from repro.hdfs.hdfs import Block, HdfsError
from repro.sim.core import AnyOf, Event, Interrupt, Process, SimulationError
from repro.sim.flows import Flow, FlowCancelled
from repro.yarn.rm import Container, ContainerKilled

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.appmaster import MRAppMaster

__all__ = ["AttemptState", "Task", "TaskAttempt", "TaskFailed", "TaskState", "TaskType"]


class TaskType(enum.Enum):
    MAP = "map"
    REDUCE = "reduce"


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class AttemptState(enum.Enum):
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    KILLED = "killed"      # killed deliberately (node lost, speculation loser)
    VANISHED = "vanished"  # died silently on an unreachable node


class TaskFailed(Exception):
    """An attempt ended unsuccessfully; ``reason`` is a short slug."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class Task:
    """A logical Map- or ReduceTask with its attempt history."""

    def __init__(self, task_id: int, task_type: TaskType,
                 block: Block | None = None, partition_index: int | None = None) -> None:
        self.task_id = task_id
        self.task_type = task_type
        #: Input split (maps only).
        self.block = block
        #: Which MOF partition this reducer owns (reduces only).
        self.partition_index = partition_index
        self.state = TaskState.PENDING
        self.attempts: list["TaskAttempt"] = []
        self.failed_attempts = 0
        #: Pending container grants for this task (may be >1 under SFM).
        self.outstanding_requests = 0
        #: Whether this map has ever been counted as completed (re-runs
        #: of a lost MOF must not inflate the completed-map counter).
        self.counted = False

    @property
    def name(self) -> str:
        return f"{self.task_type.value}-{self.task_id}"

    def running_attempts(self) -> list["TaskAttempt"]:
        return [a for a in self.attempts if a.state is AttemptState.RUNNING]

    @property
    def is_finished(self) -> bool:
        return self.state in (TaskState.SUCCEEDED, TaskState.FAILED)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} {self.state.value}>"


class TaskAttempt:
    """One execution attempt, bound to a container on a node.

    Subclasses implement :meth:`run` as a generator; the base class
    handles guarded waiting (every wait yields :meth:`_guard`, which
    races it against the container's kill event), cleanup of in-flight flows and child processes, and
    outcome classification.
    """

    def __init__(self, am: "MRAppMaster", task: Task, container: Container) -> None:
        self.am = am
        self.sim = am.sim
        self.cluster = am.cluster
        self.task = task
        self.container = container
        self.node = container.node
        self.attempt_index = len(task.attempts)
        self.attempt_id = f"{task.name}.{self.attempt_index}"
        self.state = AttemptState.RUNNING
        self.start_time = self.sim.now
        self.end_time: float | None = None
        #: Set True before interrupting when the failure must not count
        #: (e.g. killing the loser of a speculative race).
        self.discard = False
        self.process: Process | None = None
        self._flows: list[Flow] = []
        self._children: list[Process] = []
        task.attempts.append(self)
        task.state = TaskState.RUNNING

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        self.process = self.sim.process(self._outer(), name=self.attempt_id)

    def kill(self, reason: str, discard: bool = False) -> None:
        """Interrupt the attempt (fault injection, speculation, SFM)."""
        if discard:
            self.discard = True
        if self.process is not None and self.process.is_alive:
            self.process.interrupt(reason)

    def run(self) -> Generator[Event, Any, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def progress(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def elapsed(self) -> float:
        return (self.end_time if self.end_time is not None else self.sim.now) - self.start_time

    # -- guarded waiting -------------------------------------------------------
    def _guard(self, event: Event) -> AnyOf:
        """``yield self._guard(ev)``: wait for ``ev`` or die with the
        container. This returns the ``any_of`` event itself, so a guarded
        wait runs no generator of its own. Flow cancellations and
        container kills surface as exceptions out of the ``yield``."""
        return AnyOf(self.sim, [event, self.container.killed])

    def _flow(self, flow: Flow) -> Flow:
        self._flows.append(flow)
        return flow

    def _spawn(self, gen, name: str) -> Process:
        p = self.sim.process(gen, name=name)
        self._children.append(p)
        return p

    # -- outcome handling -----------------------------------------------------
    def _outer(self) -> Generator[Event, Any, None]:
        try:
            result = yield from self.run()
        except BaseException as exc:
            self._cleanup()
            self.end_time = self.sim.now
            if self.state is AttemptState.RUNNING:
                self._classify_failure(exc)
                if self.state is AttemptState.VANISHED:
                    self.am.on_attempt_vanished(self)
            elif not isinstance(exc, (Interrupt, TaskFailed, FlowCancelled,
                                      SimulationError, HdfsError, ContainerKilled)):
                raise exc
            self._release_if_unreported()
            return
        self._cleanup()
        self.end_time = self.sim.now
        if self.state is not AttemptState.RUNNING:
            self._release_if_unreported()
            return  # already adjudicated (e.g. marked KILLED at node loss)
        if not self.node.reachable:
            # Completed into the void: nobody heard about it.
            self.state = AttemptState.VANISHED
            self.am.on_attempt_vanished(self)
            self._release_if_unreported()
            return
        self.state = AttemptState.SUCCEEDED
        self.am._attempt_succeeded(self, result)

    def _classify_failure(self, exc: BaseException) -> None:
        if isinstance(exc, ContainerKilled):
            # The RM already told the AM the node is gone; the node-lost
            # path reschedules us, so don't double-report.
            self.state = AttemptState.KILLED
            return
        if not isinstance(exc, (Interrupt, TaskFailed, FlowCancelled, SimulationError, HdfsError)):
            raise exc  # genuine bug: crash the simulation loudly
        if self.discard:
            self.state = AttemptState.KILLED
            return
        if not self.node.reachable:
            self.state = AttemptState.VANISHED
            return
        self.state = AttemptState.FAILED
        if isinstance(exc, Interrupt):
            reason = str(exc.cause) if exc.cause is not None else "killed"
        elif isinstance(exc, TaskFailed):
            reason = exc.reason
        else:
            reason = type(exc).__name__
        self.am._attempt_failed(self, reason)

    def _release_if_unreported(self) -> None:
        """KILLED and VANISHED attempts never reach
        ``_attempt_succeeded``/``_attempt_failed`` — the normal
        container-release sites — so without this their containers
        leak NM memory forever (caught by the containers-released
        invariant). Release is idempotent, so the paths where the RM
        already killed the container (node lost) are unaffected."""
        if self.state in (AttemptState.KILLED, AttemptState.VANISHED):
            self.am.rm.release_container(self.container)

    def _cleanup(self) -> None:
        for child in self._children:
            if child.is_alive:
                child.interrupt("attempt ended")
        self._children.clear()
        # One batched cancel for everything the attempt still has in
        # flight (shuffle fetches, merge writes): a single progress
        # advance and one deferred rate recompute.
        self.cluster.flows.cancel_many(
            [fl for fl in self._flows if fl.active], f"{self.attempt_id} ended")
        self._flows.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Attempt {self.attempt_id} on {self.node.name} {self.state.value}>"
