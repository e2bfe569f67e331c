"""The MRAppMaster: task scheduling, bookkeeping and failure accounting."""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from repro.cluster import Cluster
from repro.cluster.node import Node
from repro.hdfs.hdfs import Hdfs
from repro.mapreduce.config import MAP_PRIORITY, RECOVERY_MAP_PRIORITY, REDUCE_PRIORITY, JobConf
from repro.mapreduce.history import JobHistoryLog
from repro.mapreduce.maptask import MapAttempt
from repro.mapreduce.mof import MOFRegistry
from repro.mapreduce.recovery import RecoveryPolicy
from repro.mapreduce.tasks import AttemptState, Task, TaskState, TaskType
from repro.metrics.trace import Trace
from repro.sim.core import Event, Simulator
from repro.workloads import Workload
from repro.yarn.rm import Container, ResourceManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.reducetask import ReduceAttempt

__all__ = ["MRAppMaster"]


class MRAppMaster:
    """Per-job coordinator (YARN's MRAppMaster).

    Owns the task tables and the MOF registry, requests containers from
    the RM, launches attempts, counts fetch-failure reports and defers
    every recovery decision to the attached
    :class:`~repro.mapreduce.recovery.RecoveryPolicy`.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        rm: ResourceManager,
        hdfs: Hdfs,
        workload: Workload,
        conf: JobConf,
        policy: RecoveryPolicy,
        trace: Trace,
        input_path: str,
        job_name: str = "job",
        history: JobHistoryLog | None = None,
        am_attempt: int = 0,
        partition_weights=None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.rm = rm
        self.hdfs = hdfs
        self.workload = workload
        self.conf = conf
        self.policy = policy
        self.trace = trace
        self.job_name = job_name
        self.input_path = input_path
        #: Job-history event log (runtime-owned, survives this AM).
        self.history = history
        #: Incarnation number: 0 for the first launch, +1 per restart.
        self.am_attempt = am_attempt

        # Partition weights are job-level state: a restarted AM inherits
        # them (drawing again would shift the RNG stream and disagree
        # with MOFs partitioned under the original weights).
        self.partition_weights = (partition_weights if partition_weights is not None
                                  else workload.partition_weights(cluster.rng))
        blocks = hdfs.blocks(input_path)
        self.map_tasks = [Task(i, TaskType.MAP, block=b) for i, b in enumerate(blocks)]
        self.reduce_tasks = [
            Task(i, TaskType.REDUCE, partition_index=i) for i in range(workload.num_reducers)
        ]
        self.num_maps = len(self.map_tasks)
        self.num_reduces = len(self.reduce_tasks)

        self.registry = MOFRegistry()
        self.active_reducers: list["ReduceAttempt"] = []
        self.fetch_failure_reports: dict[int, int] = {}
        #: task_id -> commit record of the winning reduce attempt
        #: (byte accounting the invariant checkers audit post-run).
        self.reduce_commits: dict[int, dict] = {}
        self.completed_maps = 0
        self.committed_reduces = 0
        self.max_map_runtime = 10.0
        self._reducers_launched = False
        self._finished = False
        #: True once this incarnation was killed by an AMFault; a
        #: crashed AM neither schedules, reports, nor finishes.
        self._crashed = False
        #: (attempt, result) completions that landed while crashed —
        #: replayed by the next incarnation (keep_containers) or
        #: released at teardown.
        self._orphan_reports: list[tuple] = []
        self._req_ids = itertools.count()
        #: Triggers with a result dict when the job ends.
        self.done: Event = sim.event()
        self.start_time = sim.now

        rm.node_lost_listeners.append(self._on_node_lost)
        rm.node_rejoined_listeners.append(self._on_node_rejoined)
        policy.attach(self)

    @property
    def dead(self) -> bool:
        """This incarnation is over: finished normally or crashed."""
        return self._finished or self._crashed

    # -- job start ----------------------------------------------------------
    def start(self) -> None:
        self.start_time = self.sim.now
        if self.am_attempt == 0:
            self.trace.log("job_start", job=self.job_name, maps=self.num_maps,
                           reduces=self.num_reduces)
        for task in self.map_tasks:
            # On the first launch every map is pending; after a restart,
            # recovered and adopted tasks are skipped.
            if task.is_finished or task.running_attempts() or task.outstanding_requests:
                continue
            self.schedule_task(task, priority=MAP_PRIORITY)
        if (self.conf.slowstart_completed_maps <= 0
                or self.completed_maps >= self._reduce_launch_threshold()):
            self._launch_reducers()
        if self.num_reduces and self.committed_reduces >= self.num_reduces \
                and not self._finished:
            # Everything already committed before the crash.
            self._finish(success=True)

    # -- scheduling ----------------------------------------------------------
    def schedule_task(
        self,
        task: Task,
        priority: float,
        preferred: list[Node] | None = None,
        exclude: list[Node] | None = None,
        attempt_kwargs: dict | None = None,
    ) -> None:
        """Request a container and launch an attempt when granted."""
        if task.is_finished or self.dead:
            return
        if preferred is None and task.task_type is TaskType.MAP and task.block is not None:
            preferred = task.block.live_replicas()
        if preferred is None and task.task_type is TaskType.REDUCE:
            # Spread reducers round-robin: co-located reducers halve
            # each other's disk/NIC share and straggle the whole phase.
            healthy = self.rm.healthy_nodes()
            if healthy:
                preferred = [healthy[task.task_id % len(healthy)]]
        preferred, exclude = self.policy.steer_placement(task, preferred, exclude)
        mem = (self.conf.map_memory_mb if task.task_type is TaskType.MAP
               else self.conf.reduce_memory_mb)
        task.outstanding_requests += 1
        grant = self._request_container(mem, priority=priority,
                                        preferred=preferred, exclude=exclude)

        def on_grant(event: Event) -> None:
            task.outstanding_requests -= 1
            container: Container = event.value
            self._launch(task, container, attempt_kwargs or {})

        grant._add_callback(on_grant)

    def _request_container(self, memory_mb: int, priority: float,
                           preferred: list[Node] | None = None,
                           exclude: list[Node] | None = None) -> Event:
        """Allocate path to the RM, through the RPC channel.

        On a reliable channel this is exactly the old synchronous call.
        On a fallible one the allocate request itself can be lost, so a
        retry loop re-sends it with exponential backoff and
        deterministic jitter under a stable ``request_id`` — the RM's
        idempotent grant handling guarantees a duplicate send can never
        double-allocate.
        """
        rm = self.rm
        if not rm.rpc.fallible:
            return rm.request_container(memory_mb, priority=priority,
                                        preferred_nodes=preferred, exclude_nodes=exclude)
        grant = self.sim.event()
        rid = f"am{self.am_attempt}-r{next(self._req_ids)}"
        self.sim.process(
            self._allocate_loop(grant, rid, memory_mb, priority, preferred, exclude),
            name=f"alloc:{rid}")
        return grant

    def _allocate_loop(self, grant: Event, rid: str, memory_mb: int,
                       priority: float, preferred, exclude):
        rm = self.rm
        policy = rm.retry_policy
        attempt = 0
        while not grant.triggered and not self.dead:
            outcome = rm.rpc.send(f"alloc|{rid}")
            if not outcome.dropped:
                if outcome.delay > 0.0:
                    yield self.sim.timeout(outcome.delay)
                    if grant.triggered or self.dead:
                        return
                rm.request_container(memory_mb, priority=priority,
                                     preferred_nodes=preferred, exclude_nodes=exclude,
                                     request_id=rid, grant=grant)
                if grant.triggered:
                    return
            # Wait for the grant or the backoff interval, whichever
            # comes first, then re-send. The interval plateaus at the
            # policy cap so a busy cluster isn't hammered.
            capped = min(attempt, max(policy.max_retries - 1, 0))
            yield self.sim.any_of(
                [grant, self.sim.timeout(policy.interval(capped, rid))])
            attempt += 1

    def _launch(self, task: Task, container: Container, attempt_kwargs: dict) -> None:
        if task.is_finished or self.dead or not container.alive:
            self.rm.release_container(container)
            return
        if task.running_attempts() and not attempt_kwargs.get("speculative", False):
            # A previous request for this task was already satisfied.
            self.rm.release_container(container)
            return
        if self._reject_clumped_reduce(task, container, attempt_kwargs):
            return
        attempt_kwargs = dict(attempt_kwargs)
        attempt_kwargs.pop("speculative", None)
        if task.task_type is TaskType.MAP:
            attempt = MapAttempt(self, task, container)
        else:
            attempt = self.policy.make_reduce_attempt(task, container, **attempt_kwargs)
        attempt.start()
        self.trace.log("attempt_start", task=task.name, attempt=attempt.attempt_id,
                       node=container.node.name, type=task.task_type.value)
        if task.task_type is TaskType.REDUCE:
            self.policy.on_reduce_attempt_started(attempt)

    def _reject_clumped_reduce(self, task: Task, container: Container,
                               attempt_kwargs: dict) -> bool:
        """AM-side container rejection (as real AMs do for locality):
        don't stack a first-launch reducer onto a node that already
        runs one while empty nodes exist — co-located reducers halve
        each other's disk/NIC share and straggle the phase."""
        if task.task_type is not TaskType.REDUCE or attempt_kwargs:
            return False
        if task.attempts or getattr(task, "_rebalanced", 0) >= 2:
            return False  # only first launches, bounded retries
        busy_nodes = {
            a.node for t in self.reduce_tasks for a in t.running_attempts()
        }
        if container.node not in busy_nodes:
            return False
        healthy = set(self.rm.healthy_nodes())
        empty = healthy - busy_nodes
        if not empty:
            return False  # nowhere better to go
        task._rebalanced = getattr(task, "_rebalanced", 0) + 1
        task.outstanding_requests += 1
        self.rm.release_container(container)
        # Preference only — a hard exclusion of every currently-busy
        # node can become permanently unsatisfiable if the remaining
        # nodes die later (observed as a multi-job deadlock).
        grant = self._request_container(
            self.conf.reduce_memory_mb, priority=REDUCE_PRIORITY,
            preferred=sorted(empty, key=lambda n: n.node_id),
        )

        def on_grant(event: Event) -> None:
            task.outstanding_requests -= 1
            self._launch(task, event.value, {})

        grant._add_callback(on_grant)
        return True

    # -- attempt outcomes --------------------------------------------------
    def _attempt_succeeded(self, attempt, result) -> None:
        if self._crashed:
            # No live AM to receive the report: buffer it (container
            # still held) for the next incarnation to replay, or for
            # teardown to release.
            self._orphan_reports.append((attempt, result))
            return
        self.rm.release_container(attempt.container)
        task = attempt.task
        self.trace.log("attempt_success", task=task.name, attempt=attempt.attempt_id,
                       node=attempt.node.name, elapsed=attempt.elapsed)
        self.policy.on_attempt_outcome(attempt, ok=True)
        if self._finished or task.state is TaskState.SUCCEEDED:
            return  # speculative duplicate or late completion
        task.state = TaskState.SUCCEEDED
        for other in task.running_attempts():
            if other is not attempt:
                other.kill("speculative-loser", discard=True)
        if task.task_type is TaskType.MAP:
            self._map_succeeded(task, attempt, result)
        else:
            self._reduce_succeeded(task, attempt, result)

    def _map_succeeded(self, task: Task, attempt, mof) -> None:
        self.registry.register(mof)
        self.fetch_failure_reports.pop(task.task_id, None)
        if not task.counted:
            task.counted = True  # first success of this logical map
            self.completed_maps += 1
        self.max_map_runtime = max(self.max_map_runtime, attempt.elapsed)
        if self.history is not None:
            self.history.record_map(self.sim.now, task.task_id, attempt.attempt_id,
                                    mof, attempt.elapsed)
        self.policy.on_map_completed(task, mof)
        for reducer in list(self.active_reducers):
            reducer.notify_mof(mof)
        if not self._reducers_launched and self.completed_maps >= self._reduce_launch_threshold():
            self._launch_reducers()

    def _reduce_succeeded(self, task: Task, attempt, result) -> None:
        self.committed_reduces += 1
        result = result if isinstance(result, dict) else {}
        self.reduce_commits[task.task_id] = {
            "attempt": attempt.attempt_id,
            "input_bytes": float(result.get("input_bytes", 0.0)),
            "output_bytes": float(result.get("output_bytes", 0.0)),
            "resume_fraction": float(getattr(attempt, "reduce_resume_fraction", 0.0)),
            "mode": result.get("mode", "regular"),
        }
        self.trace.log("reduce_commit", task=task.name, attempt=attempt.attempt_id)
        if self.history is not None:
            self.history.record_reduce(self.sim.now, task.task_id,
                                       self.reduce_commits[task.task_id])
        if self.committed_reduces >= self.num_reduces:
            self._finish(success=True)

    def _attempt_failed(self, attempt, reason: str) -> None:
        if self._crashed:
            # Orphan failure during AM downtime: release the container;
            # the next incarnation reconciles the task (it has no
            # running attempt, so it is simply rescheduled).
            self.rm.release_container(attempt.container)
            return
        self.rm.release_container(attempt.container)
        task = attempt.task
        task.failed_attempts += 1
        self.trace.log("attempt_failed", task=task.name, attempt=attempt.attempt_id,
                       node=attempt.node.name, reason=reason, type=task.task_type.value)
        self.policy.on_attempt_outcome(attempt, ok=False)
        if self._finished or task.is_finished:
            return
        if task.failed_attempts >= self.conf.max_attempts:
            task.state = TaskState.FAILED
            self.trace.log("task_failed", task=task.name, reason=reason)
            self._finish(success=False)
            return
        self.policy.on_task_failed(task, attempt, reason)

    # -- reducers -----------------------------------------------------------
    def _reduce_launch_threshold(self) -> int:
        return max(1, math.ceil(self.conf.slowstart_completed_maps * self.num_maps))

    def _launch_reducers(self) -> None:
        self._reducers_launched = True
        for task in self.reduce_tasks:
            # After an AM restart, recovered (finished) and adopted
            # (running) reducers must not be scheduled again; on the
            # first launch every reducer is pending and none is skipped.
            if task.is_finished or task.running_attempts() or task.outstanding_requests:
                continue
            self.schedule_task(task, priority=REDUCE_PRIORITY)

    def register_reducer(self, attempt: "ReduceAttempt") -> None:
        self.active_reducers.append(attempt)
        for map_id in self.registry.known_map_ids():
            mof = self.registry.get(map_id)
            if mof is not None:
                attempt.notify_mof(mof)

    def unregister_reducer(self, attempt: "ReduceAttempt") -> None:
        if attempt in self.active_reducers:
            self.active_reducers.remove(attempt)

    # -- fetch-failure accounting ------------------------------------------------
    def report_fetch_failure(self, reducer_attempt, map_ids: list[int], host: Node) -> None:
        if self.dead:
            return  # no AM to report to (orphan reducer during downtime)
        for map_id in map_ids:
            count = self.fetch_failure_reports.get(map_id, 0) + 1
            self.fetch_failure_reports[map_id] = count
            self.trace.log("fetch_failure_report", map_id=map_id, host=host.name,
                           reducer=reducer_attempt.attempt_id, count=count)
            task = self.map_tasks[map_id]
            self.policy.on_fetch_failure_report(task, count)

    def rerun_map(self, task: Task, priority: float | None = None) -> None:
        """Re-execute a *completed* map whose MOF is gone."""
        if self.dead:
            return  # no re-runs against a finished or crashed job
        if task.state is not TaskState.SUCCEEDED:
            return  # already re-running or never finished
        self.registry.invalidate(task.task_id)
        self.fetch_failure_reports.pop(task.task_id, None)
        for reducer in list(self.active_reducers):
            reducer.drop_mof(task.task_id)
        task.state = TaskState.RUNNING
        self.trace.log("map_rerun", task=task.name)
        self.schedule_task(task, priority=priority if priority is not None
                           else RECOVERY_MAP_PRIORITY)

    # -- task timeout -------------------------------------------------------
    def on_attempt_vanished(self, attempt) -> None:
        """An attempt died (or completed) into the void on an unreachable
        node. If the RM later declares the node lost, the node-lost path
        reschedules the task; but a partition that heals *before* the
        liveness timeout leaves the RM none the wiser, and only this —
        Hadoop's ``mapreduce.task.timeout`` — gets the task re-run."""
        if self.dead:
            # Teardown/crash races land here: an attempt that vanishes
            # *while* the AM is finishing (or after it crashed) must not
            # arm a timeout that would later reschedule work against a
            # dead job.
            return
        self.sim.process(self._vanished_watch(attempt),
                         name=f"task-timeout:{attempt.attempt_id}")

    def _vanished_watch(self, attempt):
        task = attempt.task
        n_attempts = len(task.attempts)
        yield self.sim.timeout(self.conf.task_timeout)
        if (self.dead or task.is_finished
                or attempt.state is not AttemptState.VANISHED
                or len(task.attempts) != n_attempts
                or task.outstanding_requests > 0):
            return  # something else already rescheduled (or finished) it
        self._attempt_failed(attempt, "task-timeout")

    # -- node loss ----------------------------------------------------------
    def tasks_running_on(self, node: Node) -> list[Task]:
        """Tasks whose latest attempt was running on ``node`` when it died."""
        out = []
        for task in self.map_tasks + self.reduce_tasks:
            for a in task.attempts:
                if a.node is node and a.state in (AttemptState.RUNNING, AttemptState.KILLED,
                                                  AttemptState.VANISHED):
                    if not task.is_finished:
                        out.append(task)
                        break
        return out

    def completed_maps_on(self, node: Node) -> list[Task]:
        return [self.map_tasks[m.map_id] for m in self.registry.on_node(node)
                if self.map_tasks[m.map_id].state is TaskState.SUCCEEDED]

    def _on_node_lost(self, node: Node) -> None:
        if self.dead:
            return
        self.trace.log("node_lost", node=node.name)
        # Adjudicate the dying attempts *now*: the RM listener runs before
        # the ContainerKilled exceptions reach the attempt processes, and
        # the policy must see those attempts as dead when it reschedules.
        for task in self.map_tasks + self.reduce_tasks:
            for a in task.attempts:
                if a.node is node and a.state is AttemptState.RUNNING:
                    a.state = AttemptState.KILLED
                    a.end_time = self.sim.now
                    self.trace.log("attempt_killed_node_lost", task=task.name,
                                   attempt=a.attempt_id, type=task.task_type.value)
        self.policy.on_node_lost(node)

    def _on_node_rejoined(self, node: Node) -> None:
        if self.dead:
            return
        self.trace.log("node_rejoined", node=node.name)
        self.policy.on_node_rejoined(node)

    # -- AM failure & restart -------------------------------------------------
    def crash(self, keep_containers: bool) -> None:
        """Kill this AM incarnation (the AMFault hook).

        The job-level objects (history log, HDFS state, the RM) all
        survive; only this coordinator dies. With ``keep_containers``
        the running attempts keep executing as orphans for the next
        incarnation to adopt; otherwise everything is torn down, as when
        YARN work-preserving AM restart is off.
        """
        if self.dead:
            return
        self._crashed = True
        for listeners, fn in ((self.rm.node_lost_listeners, self._on_node_lost),
                              (self.rm.node_rejoined_listeners, self._on_node_rejoined)):
            try:
                listeners.remove(fn)
            except ValueError:  # pragma: no cover - defensive
                pass
        if not keep_containers:
            self.teardown_orphans("am-crashed")

    def teardown_orphans(self, reason: str) -> None:
        """Kill surviving attempts and release buffered containers."""
        for task in self.map_tasks + self.reduce_tasks:
            for attempt in task.running_attempts():
                attempt.kill(reason, discard=True)
        for attempt, _result in self._orphan_reports:
            self.rm.release_container(attempt.container)
        self._orphan_reports.clear()

    def drain_orphan_reports(self) -> list[tuple]:
        reports, self._orphan_reports = self._orphan_reports, []
        return reports

    def recover(self, old_am: "MRAppMaster", keep_containers: bool) -> None:
        """Rebuild job state after a restart.

        With ``am_recovery == "log"`` the job-history log is replayed:
        completed maps whose MOFs are still on disk are marked done
        without re-execution (their registry entries are restored), and
        committed reduces keep their commits. ``rerun-all`` skips the
        replay entirely — the ablation baseline. Independently,
        ``keep_containers`` adopts orphaned running attempts and replays
        completions that landed during the downtime; otherwise the old
        incarnation's survivors are torn down.
        """
        if self.conf.am_recovery == "log" and self.history is not None:
            for map_id, rec in sorted(self.history.map_records().items()):
                task = self.map_tasks[map_id]
                if task.is_finished or not rec.mof.on_disk():
                    continue
                task.state = TaskState.SUCCEEDED
                task.counted = True
                self.completed_maps += 1
                self.registry.register(rec.mof)
                self.max_map_runtime = max(self.max_map_runtime, rec.runtime)
                self.trace.log("map_recovered", task=task.name,
                               node=rec.mof.node.name)
            for task_id, rec in sorted(self.history.reduce_records().items()):
                task = self.reduce_tasks[task_id]
                if task.is_finished:
                    continue
                task.state = TaskState.SUCCEEDED
                task.counted = True
                self.committed_reduces += 1
                self.reduce_commits[task_id] = dict(rec.commit)
                self.trace.log("reduce_recovered", task=task.name)
        if not keep_containers:
            old_am.teardown_orphans("am-restart-teardown")
            return
        for old_task in old_am.map_tasks + old_am.reduce_tasks:
            pool = (self.map_tasks if old_task.task_type is TaskType.MAP
                    else self.reduce_tasks)
            new_task = pool[old_task.task_id]
            for attempt in old_task.running_attempts():
                if new_task.is_finished:
                    attempt.kill("superseded-after-am-restart", discard=True)
                    continue
                attempt.am = self
                attempt.task = new_task
                new_task.attempts.append(attempt)
                new_task.state = TaskState.RUNNING
                self.trace.log("attempt_adopted", task=new_task.name,
                               attempt=attempt.attempt_id,
                               type=new_task.task_type.value)
                if (old_task.task_type is TaskType.REDUCE
                        and getattr(attempt, "_registered", False)):
                    # Re-home a shuffle-stage reducer: registering with
                    # this AM re-notifies every known MOF (idempotent on
                    # the reducer side).
                    self.register_reducer(attempt)
        # Completions that landed while no AM was alive: re-point and
        # replay them through the normal success path (which releases
        # the still-held containers and writes the usual records).
        for attempt, result in old_am.drain_orphan_reports():
            pool = (self.map_tasks if attempt.task.task_type is TaskType.MAP
                    else self.reduce_tasks)
            new_task = pool[attempt.task.task_id]
            attempt.am = self
            attempt.task = new_task
            new_task.attempts.append(attempt)
            self._attempt_succeeded(attempt, result)

    # -- completion -----------------------------------------------------------
    def _finish(self, success: bool) -> None:
        if self.dead:
            return
        self._finished = True
        self.trace.log("job_end", job=self.job_name, success=success)
        self.policy.on_job_finished()
        # Real AMs tear down every container at unregistration. Without
        # this, late map re-runs (MOF regeneration races) outlive the
        # job holding containers — the no-orphans invariant's top find.
        for task in self.map_tasks + self.reduce_tasks:
            for attempt in task.running_attempts():
                attempt.kill("job finished", discard=True)
        self.done.succeed({
            "success": success,
            "start_time": self.start_time,
            "end_time": self.sim.now,
        })

    # -- live metrics (used by samplers and fault triggers) -----------------
    def reduce_phase_progress(self) -> float:
        """Mean progress over all reduce tasks (completed count as 1).

        Polled every sampler tick and every ``at_progress`` fault poll,
        so it scans attempts inline instead of building
        ``running_attempts()`` lists. The strict ``>`` keeps builtin
        ``max``'s first-maximum rule, and the sum runs in task order,
        so the float result is unchanged."""
        if not self.reduce_tasks:
            return 1.0
        total = 0.0
        for task in self.reduce_tasks:
            if task.state is TaskState.SUCCEEDED:
                total += 1.0
                continue
            best = None
            for a in task.attempts:
                if a.state is AttemptState.RUNNING:
                    p = a.progress
                    if best is None or p > best:
                        best = p
            if best is not None:
                total += best
        return total / self.num_reduces

    def map_phase_progress(self) -> float:
        return self.completed_maps / max(self.num_maps, 1)

    def log_task_progress(self) -> None:
        """Emit one ``task_progress`` record per running attempt: maps
        then reduces in task-id order, attempts in allocation order."""
        trace = self.trace
        for tasks, tt in ((self.map_tasks, 0), (self.reduce_tasks, 1)):
            for task in tasks:
                for a in task.attempts:
                    if a.state is AttemptState.RUNNING:
                        trace.log("task_progress", tt=tt, task=task.task_id,
                                  attempt=a.attempt_index, progress=a.progress)

    def map_locality_counts(self) -> dict[str, int]:
        """Hadoop-style locality breakdown of successful map reads."""
        counts = {"data-local": 0, "rack-local": 0, "off-rack": 0}
        for task in self.map_tasks:
            for a in task.attempts:
                locality = getattr(a, "locality", None)
                if locality is not None and a.state.value == "succeeded":
                    counts[locality] += 1
        return counts
