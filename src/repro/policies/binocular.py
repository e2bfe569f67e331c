"""Binocular speculation: dual recovery attempts sharing shuffle state.

When a ReduceTask fails, stock YARN relaunches one attempt and bets the
relaunch site is healthy. The binocular policy hedges with *two* eyes:

* the **anchor eye** relaunches on the failed attempt's node, carrying a
  :class:`~repro.mapreduce.reducetask.ReduceRecoveryState` snapshot of
  the dead attempt's shuffle progress — if the node survived (transient
  task failure) and the spill files are intact, the new attempt adopts
  them and skips the already-shuffled prefix;
* the **migrated eye** starts speculatively on any other node, fetching
  from scratch — insurance against the anchor node being the real
  problem.

Both eyes receive the *same* recovery-state object; whichever attempt
lands where the spills actually live adopts them (the adoption check in
``ReduceAttempt._apply_recovery`` requires every segment local and
intact), and the first eye to commit wins — the AM's normal
first-commit-wins rule retires the loser. Node loss gets the same
two-eyed treatment minus the anchor preference (there is no shuffle
state to share once the node's disks are gone).
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.mapreduce.config import MAP_PRIORITY, REDUCE_PRIORITY
from repro.mapreduce.recovery import YarnRecoveryPolicy
from repro.mapreduce.reducetask import ReduceRecoveryState
from repro.mapreduce.tasks import Task, TaskType

__all__ = ["BinocularPolicy", "make_binocular"]

#: Concurrent attempts per failed reduce task: the two eyes.
MAX_PARALLEL_ATTEMPTS = 2


class BinocularPolicy(YarnRecoveryPolicy):
    """Two-eyed reduce recovery on top of stock map handling."""

    name = "binocular"

    # -- failure hooks ---------------------------------------------------------
    def on_task_failed(self, task: Task, attempt, reason: str) -> None:
        if task.task_type is TaskType.MAP:
            super().on_task_failed(task, attempt, reason)
            return
        shared = ReduceRecoveryState(
            fetched_map_ids=set(attempt.fetched),
            disk_segments=list(attempt.disk_segments),
        )
        anchor = attempt.node
        if not anchor.reachable or self.am.rm.is_lost(anchor):
            # No surviving node to anchor on: dual fresh attempts away
            # from the failure site.
            anchor = None
        self._dual_launch(task, shared=shared, anchor=anchor,
                          avoid=attempt.node)

    def on_node_lost(self, node: Node) -> None:
        am = self.am
        for task in am.tasks_running_on(node):
            if (task.is_finished or task.running_attempts()
                    or task.outstanding_requests):
                continue
            if task.task_type is TaskType.MAP:
                am.schedule_task(task, priority=MAP_PRIORITY)
            else:
                # The node's disks died with it; nothing to share.
                self._dual_launch(task, shared=None, anchor=None, avoid=node)

    # -- internals --------------------------------------------------------
    def _dual_launch(self, task: Task, shared: ReduceRecoveryState | None,
                     anchor: Node | None, avoid: Node | None) -> None:
        am = self.am
        live = len(task.running_attempts()) + task.outstanding_requests
        if live >= MAX_PARALLEL_ATTEMPTS:
            return
        kwargs: dict = {"recovery": shared} if shared is not None else {}
        am.trace.log("binocular_dual", task=task.name,
                     anchor=anchor.name if anchor is not None else "none")
        # Eye 1: the anchor — prefer the failure site to re-adopt spills.
        am.schedule_task(
            task, priority=REDUCE_PRIORITY,
            preferred=[anchor] if anchor is not None else None,
            exclude=None if anchor is not None else
            ([avoid] if avoid is not None else None),
            attempt_kwargs=dict(kwargs),
        )
        live += 1
        # Eye 2: the migrated speculative duplicate, away from the site.
        if live < MAX_PARALLEL_ATTEMPTS:
            am.schedule_task(
                task, priority=REDUCE_PRIORITY,
                exclude=[avoid] if avoid is not None else None,
                attempt_kwargs=dict(kwargs, speculative=True),
            )


def make_binocular():
    return BinocularPolicy()
