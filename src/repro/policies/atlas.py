"""ATLAS-style adaptive failure-aware placement.

ATLAS (Yildiz et al.) observed that task failures cluster on a small set
of unhealthy machines, and that re-running a failed task on the node
that just killed it is the single biggest amplifier of recovery time.
This policy keeps a sliding window of per-node attempt outcomes and
steers container requests away from nodes whose recent failure rate
crosses a threshold — recovery behaviour is otherwise stock YARN, so
the effect isolated is *where* work lands, not *what* is re-run.

Scoring is deliberately simple and fully deterministic: a node is risky
when at least ``min_observations`` of its last ``window`` outcomes are
recorded and the failure fraction is >= ``failure_threshold``. A node
that the RM declares lost takes a failure mark (the tasks it killed
never report), and a rejoining node gets amnesty — its history restarts
clean, matching ATLAS's recovery of reformed machines.
"""

from __future__ import annotations

from collections import deque

from repro.cluster.node import Node
from repro.mapreduce.recovery import YarnRecoveryPolicy
from repro.mapreduce.tasks import Task
from repro.sim.core import SimulationError

__all__ = ["AtlasPolicy", "make_atlas"]


class AtlasPolicy(YarnRecoveryPolicy):
    """Stock recovery + outcome-history-driven placement steering."""

    name = "atlas"

    def __init__(self, window: int = 8, min_observations: int = 3,
                 failure_threshold: float = 0.5) -> None:
        super().__init__()
        if window < 1 or min_observations < 1:
            raise SimulationError("bad atlas window parameters")
        if not 0.0 < failure_threshold <= 1.0:
            raise SimulationError("failure_threshold must be in (0, 1]")
        self.window = window
        self.min_observations = min_observations
        self.failure_threshold = failure_threshold
        #: node_id -> recent outcomes (True = attempt succeeded).
        self.node_outcomes: dict[int, deque[bool]] = {}

    # -- history ----------------------------------------------------------
    def on_attempt_outcome(self, attempt, ok: bool) -> None:
        history = self.node_outcomes.setdefault(
            attempt.node.node_id, deque(maxlen=self.window))
        history.append(ok)

    def on_node_lost(self, node: Node) -> None:
        # The node took its running attempts with it; that is the
        # strongest failure signal there is.
        history = self.node_outcomes.setdefault(
            node.node_id, deque(maxlen=self.window))
        history.append(False)
        super().on_node_lost(node)

    def on_node_rejoined(self, node: Node) -> None:
        self.node_outcomes.pop(node.node_id, None)  # amnesty
        super().on_node_rejoined(node)

    def failure_score(self, node_id: int) -> float:
        """Failure fraction over the window, or 0.0 below the
        observation floor (an unknown node is innocent). A node the RM
        has declared lost more than once (flapping) scores 1.0 outright
        — the RM's lifetime count survives AM restarts, so a fresh AM
        incarnation doesn't have to relearn a chronic flapper."""
        if self.am is not None \
                and self.am.rm.node_lost_counts.get(node_id, 0) >= 2:
            return 1.0
        history = self.node_outcomes.get(node_id)
        if history is None or len(history) < self.min_observations:
            return 0.0
        return sum(1 for ok in history if not ok) / len(history)

    # -- placement --------------------------------------------------------
    def steer_placement(self, task: Task, preferred, exclude):
        am = self.am
        healthy = am.rm.healthy_nodes()
        risky = [n for n in healthy
                 if self.failure_score(n.node_id) >= self.failure_threshold]
        # Never veto the whole cluster: a job must still place work when
        # every node looks bad (mass failure is exactly when recovery
        # pressure peaks).
        if not risky or len(risky) >= len(healthy):
            return preferred, exclude
        new_exclude = list(exclude or [])
        added = [n for n in risky if n not in new_exclude]
        if not added:
            return preferred, exclude
        new_exclude.extend(added)
        if preferred:
            vetoed = set(added)
            preferred = [n for n in preferred if n not in vetoed] or None
        am.trace.log("atlas_steer", task=task.name,
                     excluded=",".join(n.name for n in added))
        return preferred, new_exclude


def make_atlas():
    return AtlasPolicy()
