"""Pluggable failure-recovery policies.

The AM delegates every recovery decision to a policy object so that the
paper's contribution (the ALM policy in :mod:`repro.alm`) and the
baseline (stock YARN task re-execution, here) are interchangeable and
directly comparable — the benchmarks run the same job twice with
different policies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.node import Node
from repro.mapreduce.config import MAP_PRIORITY, RECOVERY_MAP_PRIORITY, REDUCE_PRIORITY
from repro.mapreduce.tasks import Task, TaskType

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.appmaster import MRAppMaster
    from repro.mapreduce.reducetask import ReduceAttempt
    from repro.yarn.rm import Container

__all__ = ["RecoveryPolicy", "YarnRecoveryPolicy"]


class RecoveryPolicy:
    """Interface the MRAppMaster consults on every failure event."""

    name = "abstract"

    def __init__(self) -> None:
        self.am: "MRAppMaster | None" = None

    def attach(self, am: "MRAppMaster") -> None:
        self.am = am

    # -- failure hooks ---------------------------------------------------------
    def on_task_failed(self, task: Task, attempt, reason: str) -> None:
        """An attempt reported failure from a reachable node."""
        raise NotImplementedError

    def on_node_lost(self, node: Node) -> None:
        """The RM declared ``node`` lost (liveness expiry)."""
        raise NotImplementedError

    def on_fetch_failure_report(self, map_task: Task, report_count: int) -> None:
        """A reducer reported it cannot fetch ``map_task``'s output."""
        raise NotImplementedError

    def on_node_rejoined(self, node: Node) -> None:
        """A lost node restarted/healed and re-registered with the RM.
        Default: nothing — rejoined nodes are simply schedulable again.
        """

    def on_fetch_giveup(self, attempt: "ReduceAttempt", host: Node, map_ids: list[int]) -> str:
        """A fetch round against ``host`` was abandoned. Return
        ``"report"`` to count/report the failure (stock YARN) or
        ``"wait"`` to have the reducer wait for MOF regeneration (SFM).
        """
        return "report"

    # -- speculation / placement extension points -------------------------------
    def make_speculator(self, am: "MRAppMaster", config=None):
        """Build the job's speculator (straggler-detector policies swap
        in their own subclass here). Default: the stock LATE scanner."""
        from repro.mapreduce.speculation import Speculator

        return Speculator(am, config)

    def steer_placement(
        self, task: Task, preferred: "list[Node] | None",
        exclude: "list[Node] | None",
    ) -> "tuple[list[Node] | None, list[Node] | None]":
        """Adjust the container request's placement hints before the AM
        asks the RM (failure-aware schedulers veto risky nodes here).
        Default: pass both lists through unchanged."""
        return preferred, exclude

    def on_attempt_outcome(self, attempt, ok: bool) -> None:
        """Every attempt outcome the AM observes (success and failure),
        for policies that keep per-node outcome history. Default: no-op."""

    # -- attempt construction -------------------------------------------------
    def make_reduce_attempt(self, task: Task, container: "Container", **kwargs):
        """Build the reduce attempt (ALM injects logging/recovery here)."""
        from repro.mapreduce.reducetask import ReduceAttempt

        return ReduceAttempt(self.am, task, container, **kwargs)

    def on_reduce_attempt_started(self, attempt: "ReduceAttempt") -> None:
        """Called right after a reduce attempt process starts."""

    def reduce_output_level(self):
        """Replica-placement level for reduce output streams, or None
        for the HDFS default (ALG overrides this: §III-B writes the
        result file 'with local and rack replicas')."""
        return None

    def on_map_completed(self, task: Task, mof) -> None:
        """A map registered its MOF (ISS-style baselines replicate
        intermediate data from here)."""

    def on_job_finished(self) -> None:
        """Called once when the job completes (either way)."""


class YarnRecoveryPolicy(RecoveryPolicy):
    """Stock YARN failover: re-launch failed tasks on any healthy node.

    Faithfully *keeps the bugs the paper identifies*: when a node is
    lost, only its RUNNING attempts are rescheduled — completed maps'
    MOFs stay registered, so reducers discover the loss one fetch
    failure at a time; a map is re-executed only after
    ``map_refetch_reports`` fetch-failure reports.
    """

    name = "yarn"

    def on_task_failed(self, task: Task, attempt, reason: str) -> None:
        am = self.am
        if task.task_type is TaskType.MAP:
            # Hadoop retries failed maps at PRIORITY_FAST_FAIL_MAP,
            # ahead of the normal map backlog.
            am.schedule_task(task, priority=RECOVERY_MAP_PRIORITY)
        else:
            am.schedule_task(task, priority=REDUCE_PRIORITY)

    def on_node_lost(self, node: Node) -> None:
        am = self.am
        # Re-run tasks whose *running* attempt died with the node. The
        # container-kill already ended the attempt processes.
        for task in am.tasks_running_on(node):
            if (not task.is_finished and not task.running_attempts()
                    and task.outstanding_requests == 0):
                prio = MAP_PRIORITY if task.task_type is TaskType.MAP else REDUCE_PRIORITY
                am.schedule_task(task, priority=prio)
        # NOTE: completed maps on the dead node are deliberately NOT
        # re-executed here — that is the stock-YARN behaviour whose
        # consequences (failure amplification) the paper measures.

    def on_fetch_failure_report(self, map_task: Task, report_count: int) -> None:
        if report_count >= self.am.conf.map_refetch_reports:
            self.am.rerun_map(map_task)
