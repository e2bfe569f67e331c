"""Speculative Fast Migration and the enhanced recovery scheduling
policy (paper §IV-B, Algorithm 1).

Behavioural summary, mapped to Algorithm 1's lines:

- Lines 5-7: every failed MapTask *and every completed map whose MOFs
  were lost* is re-executed immediately on a healthy node at high
  priority. Stock YARN waits for fetch-failure reports instead; this
  proactive regeneration is what kills both temporal and spatial
  amplification.
- Lines 9-13: a ReduceTask that failed while its node is still alive
  (transient failure, e.g. OOM) is relaunched **on the same node**, up
  to ``limit_local`` attempts, so it can resume from ALG's local logs.
- Lines 14-21: additionally a speculative recovery attempt is spawned
  on a healthy node, in FCM mode while the per-job FCM budget
  (``fcm_cap``, default 10) lasts, else in regular mode. When the node
  is actually dead only this branch fires: that is the migration.
- §V-C: reducers whose fetch rounds fail against a node the AM knows is
  dead/regenerating are told to *wait* instead of accumulating fetch
  failures — no reducer suicide, no amplification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alm.alg import ALGConfig, AnalyticsLogStore, AnalyticsLogger
from repro.alm.fcm import FCMReduceAttempt
from repro.cluster.node import Node
from repro.mapreduce.config import (MAP_PRIORITY, RECOVERY_MAP_PRIORITY, RECOVERY_REDUCE_PRIORITY,
                                    REDUCE_PRIORITY)
from repro.mapreduce.recovery import RecoveryPolicy
from repro.mapreduce.reducetask import ReduceAttempt
from repro.mapreduce.tasks import Task, TaskType
from repro.sim.core import SimulationError

__all__ = ["ALMConfig", "ALMPolicy"]

#: Max concurrent attempts per reduce task (Algorithm 1 line 14's bound).
MAX_PARALLEL_ATTEMPTS = 2


@dataclass(frozen=True)
class ALMConfig:
    """Feature switches of the ALM framework.

    The paper evaluates three configurations: ALG only (Fig. 8,
    11-13), SFM only (Figs. 9, 10, 14, Table II) and SFM+ALG
    (Fig. 15). Both default on.
    """

    enable_alg: bool = True
    enable_sfm: bool = True
    alg: ALGConfig = field(default_factory=ALGConfig)
    #: Max concurrent FCM-mode tasks per job (Algorithm 1 line 16).
    fcm_cap: int = 10
    #: Same-node relaunch budget for transient failures (line 10).
    limit_local: int = 2
    # -- ablation switches (both on in the paper's SFM) ---------------------
    #: Re-execute a dead node's completed maps immediately on detection
    #: (Algorithm 1 lines 5-7). Off = stock YARN's report-driven reruns.
    proactive_regeneration: bool = True
    #: Tell reducers to wait for regenerating MOFs instead of counting
    #: fetch failures (§V-C). Off = stock accounting (amplification).
    wait_dont_fail: bool = True

    def __post_init__(self) -> None:
        if self.fcm_cap < 0 or self.limit_local < 0:
            raise SimulationError("caps must be >= 0")
        if not (self.enable_alg or self.enable_sfm):
            raise SimulationError("enable at least one of ALG / SFM")


class ALMPolicy(RecoveryPolicy):
    """The paper's recovery policy, pluggable into the MRAppMaster."""

    def __init__(self, config: ALMConfig | None = None) -> None:
        super().__init__()
        self.config = config or ALMConfig()
        self.log_store = AnalyticsLogStore()
        self.logger = AnalyticsLogger(self.log_store, self.config.alg)
        #: Nodes whose MOFs are known lost and being regenerated.
        self.regenerating: set[int] = set()

    @property
    def name(self) -> str:  # type: ignore[override]
        cfg = self.config
        if cfg.enable_alg and cfg.enable_sfm:
            return "alm"
        return "alg" if cfg.enable_alg else "sfm"

    # -- attempt construction ------------------------------------------------
    def make_reduce_attempt(self, task: Task, container, mode: str = "regular",
                            use_logs: bool = True, **kwargs):
        recovery = None
        if self.config.enable_alg and use_logs:
            recovery = self.log_store.recovery_state_for(task, container.node)
        if mode == "fcm":
            return FCMReduceAttempt(self.am, task, container, recovery=recovery)
        return ReduceAttempt(self.am, task, container, recovery=recovery)

    def on_reduce_attempt_started(self, attempt) -> None:
        if self.config.enable_alg and not isinstance(attempt, FCMReduceAttempt):
            self.logger.attach(attempt)

    def reduce_output_level(self):
        """ALG places the reduce output pipeline at its replication
        level (§III-B: 'local and rack replicas' by default)."""
        if self.config.enable_alg:
            return self.config.alg.level
        return None

    # -- Algorithm 1 ------------------------------------------------------------
    def on_task_failed(self, task: Task, attempt, reason: str) -> None:
        am = self.am
        if task.task_type is TaskType.MAP:
            # Line 6: higher-priority re-execution on a healthy node.
            am.schedule_task(task, priority=RECOVERY_MAP_PRIORITY,
                             exclude=[attempt.node] if not attempt.node.reachable else None)
            return
        self._recover_reduce(task, failed_node=attempt.node)

    def _recover_reduce(self, task: Task, failed_node: Node | None) -> None:
        am = self.am
        cfg = self.config
        live = len(task.running_attempts()) + task.outstanding_requests

        # Lines 9-13: transient failure -> relaunch on the original node
        # to reuse local ALG logs. The whole point of the same-node
        # relaunch is those logs; without ALG (or without a usable
        # record) it would only duplicate the speculative attempt's
        # traffic — a stampede under mass concurrent failures.
        has_local_log = (
            cfg.enable_alg and failed_node is not None
            and self.log_store.local_record(task, failed_node) is not None
        )
        if (has_local_log and failed_node.reachable
                and not am.rm.is_lost(failed_node)
                and self._attempts_on(task, failed_node) <= cfg.limit_local
                and live < MAX_PARALLEL_ATTEMPTS):
            am.schedule_task(
                task, priority=RECOVERY_REDUCE_PRIORITY,
                preferred=[failed_node],
                attempt_kwargs={"mode": "regular"},
            )
            live += 1

        if not cfg.enable_sfm:
            if live == 0:
                # ALG without SFM falls back to stock re-execution
                # (still resuming from logs where possible).
                am.schedule_task(task, priority=REDUCE_PRIORITY,
                                 attempt_kwargs={"mode": "regular"})
            return

        # Lines 14-21: speculative recovery attempt on a healthy node.
        if live < MAX_PARALLEL_ATTEMPTS:
            mode = "fcm" if self._fcm_tasks_running() < cfg.fcm_cap else "regular"
            am.schedule_task(
                task, priority=RECOVERY_REDUCE_PRIORITY,
                exclude=[failed_node] if failed_node is not None else None,
                attempt_kwargs={"mode": mode, "speculative": True},
            )

    def on_node_lost(self, node: Node) -> None:
        am = self.am
        sfm = self.config.enable_sfm
        if sfm and self.config.proactive_regeneration:
            # Lines 5-7 + §IV-B: proactively regenerate every MOF that
            # lived on the dead node, at high priority, before reducers
            # stall. (ALG-only keeps stock YARN's blindness here.)
            self._start_regeneration(node)
        # Re-run tasks whose running attempt died with the node; under
        # SFM its ReduceTasks migrate with speculative FCM recovery.
        for task in am.tasks_running_on(node):
            if task.is_finished or task.running_attempts() or task.outstanding_requests:
                continue
            if task.task_type is TaskType.MAP:
                prio = RECOVERY_MAP_PRIORITY if sfm else MAP_PRIORITY
                am.schedule_task(task, priority=prio, exclude=[node])
            elif sfm:
                self._recover_reduce(task, failed_node=node)
            else:
                am.schedule_task(task, priority=REDUCE_PRIORITY,
                                 attempt_kwargs={"mode": "regular"})

    def on_node_rejoined(self, node: Node) -> None:
        # The host is reachable again: stop steering reducers into the
        # wait-for-regeneration path for it. In-flight map reruns still
        # complete and re-register their MOFs either way.
        self.regenerating.discard(node.node_id)

    def _start_regeneration(self, node: Node) -> None:
        am = self.am
        if node.node_id in self.regenerating:
            return
        self.regenerating.add(node.node_id)
        lost_maps = am.completed_maps_on(node)
        if lost_maps:
            am.trace.log("sfm_regenerate", node=node.name, maps=len(lost_maps))
        for task in lost_maps:
            am.rerun_map(task, priority=RECOVERY_MAP_PRIORITY)

    # -- fetch-failure handling (§V-C) ----------------------------------------
    def on_fetch_failure_report(self, map_task: Task, report_count: int) -> None:
        if not self.config.enable_sfm:
            # ALG-only keeps stock behaviour.
            if report_count >= self.am.conf.map_refetch_reports:
                self.am.rerun_map(map_task)
            return
        # SFM treats the first report against an unreachable host as
        # node-failure evidence and regenerates immediately.
        mof = self.am.registry.get(map_task.task_id)
        if mof is not None and not mof.node.reachable:
            self._start_regeneration(mof.node)
        elif report_count >= self.am.conf.map_refetch_reports:
            self.am.rerun_map(map_task)

    def on_fetch_giveup(self, attempt, host: Node, map_ids: list[int]) -> str:
        if not self.config.enable_sfm or not self.config.wait_dont_fail:
            return "report"
        if host.node_id in self.regenerating or self.am.rm.is_lost(host):
            return "wait"
        if not host.reachable:
            # The AM can see the host is unreachable the moment a
            # reducer complains: start regenerating and tell the reducer
            # to wait (the paper's wait-until-regenerated directive).
            self._start_regeneration(host)
            return "wait"
        return "report"

    # -- helpers -------------------------------------------------------------
    def _attempts_on(self, task: Task, node: Node) -> int:
        return sum(1 for a in task.attempts if a.node is node)

    def _fcm_tasks_running(self) -> int:
        count = 0
        for task in self.am.reduce_tasks:
            for a in task.running_attempts():
                if isinstance(a, FCMReduceAttempt):
                    count += 1
        return count

    def on_job_finished(self) -> None:
        self.regenerating.clear()
