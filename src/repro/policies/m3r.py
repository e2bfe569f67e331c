"""M3R-style in-memory shuffle baseline.

M3R (Shinnar et al., VLDB'12) runs the whole MapReduce pipeline in
memory: shuffled segments are never spilled, merged from, or re-read
off disk, which makes the fault-free path strictly faster — and makes
failure recovery strictly worse, because a node's in-memory map outputs
die with it instead of surviving on disk for re-fetch. This baseline
reproduces that trade so the zoo can measure it:

* reduce attempts keep every fetched segment in memory (the spill
  thresholds are lifted to infinity, so the stock fetch/merge machinery
  simply never takes its disk branches);
* on node loss, every completed map that lived on the dead node is
  eagerly re-executed at recovery priority — there is no MOF file for
  later fetchers to find, so waiting for fetch-failure reports (stock
  YARN's discovery path) would only stretch the stall.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.mapreduce.config import RECOVERY_MAP_PRIORITY
from repro.mapreduce.recovery import YarnRecoveryPolicy
from repro.mapreduce.reducetask import ReduceAttempt
from repro.mapreduce.tasks import Task
from repro.yarn.rm import Container

__all__ = ["M3RPolicy", "M3RReduceAttempt", "make_m3r"]


class M3RReduceAttempt(ReduceAttempt):
    """A reduce attempt that never touches disk during the shuffle."""

    def __init__(self, am, task: Task, container: Container,
                 recovery=None) -> None:
        super().__init__(am, task, container, recovery=recovery)
        # Lift every spill threshold: segments stay in memory, the
        # merger never triggers, and the final merge sees zero disk
        # segments (a no-op by construction).
        self._buffer = float("inf")
        self._single_segment_max = float("inf")
        self._merge_trigger = float("inf")


class M3RPolicy(YarnRecoveryPolicy):
    """In-memory shuffle + eager map regeneration on node loss."""

    name = "m3r"

    def make_reduce_attempt(self, task: Task, container: Container, **kwargs):
        return M3RReduceAttempt(self.am, task, container, **kwargs)

    def on_node_lost(self, node: Node) -> None:
        super().on_node_lost(node)
        # The dead node's MOFs were memory-resident: regenerate them now
        # rather than one fetch-failure report at a time.
        doomed = self.am.completed_maps_on(node)
        if doomed:
            self.am.trace.log("m3r_regenerate", node=node.name,
                              maps=len(doomed))
            for task in doomed:
                self.am.rerun_map(task, priority=RECOVERY_MAP_PRIORITY)


def make_m3r():
    return M3RPolicy()
