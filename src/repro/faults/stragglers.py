"""Straggler injection: degrade a node's devices instead of killing it.

Dinu & Ng (HPDC'12), which the paper builds on, distinguish fail-stop
nodes from *faulty* nodes that remain responsive but slow — the case
Algorithm 1's lines 14-21 target by racing a speculative recovery task
against a same-node relaunch. This injector produces such nodes by
scaling down disk and/or NIC capacity at a trigger point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.inject import _check_at_time, _check_duration, _check_worker, _require

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import MapReduceRuntime

__all__ = ["SlowNodeFault"]


@dataclass
class SlowNodeFault:
    """Degrade a worker's I/O bandwidth at ``at_time``.

    ``disk_factor`` / ``nic_factor`` multiply the device capacities
    (e.g. 0.1 = ten times slower). The node keeps heartbeating, so the
    RM never declares it lost — only speculation or ALM's Algorithm 1
    can save tasks scheduled there. With ``duration`` the degradation
    is transient (a background scrub, a flaky cable): capacities are
    restored to the node's spec after that many seconds.
    """

    node_index: int = 0
    at_time: float = 0.0
    disk_factor: float = 0.1
    nic_factor: float = 1.0
    duration: float | None = None
    fired_at: float | None = field(default=None, init=False)
    recovered_at: float | None = field(default=None, init=False)
    victim_name: str | None = field(default=None, init=False)

    def install(self, rt: "MapReduceRuntime") -> None:
        _require(0 < self.disk_factor <= 1, "SlowNodeFault.disk_factor",
                 f"must be in (0, 1], got {self.disk_factor}")
        _require(0 < self.nic_factor <= 1, "SlowNodeFault.nic_factor",
                 f"must be in (0, 1], got {self.nic_factor}")
        _check_at_time("SlowNodeFault", self.at_time)
        _check_worker(rt, "SlowNodeFault.node_index", self.node_index)
        _check_duration("SlowNodeFault", self.duration)
        rt.sim.process(self._watch(rt), name=f"fault:slow-node:{self.node_index}")

    def _watch(self, rt: "MapReduceRuntime"):
        yield rt.sim.timeout(self.at_time)
        node = rt.workers[self.node_index]
        if not node.alive:
            rt.trace.log("fault_skipped", fault="slow-node", node=node.name,
                         reason="victim already dead")
            return
        self.fired_at = rt.sim.now
        self.victim_name = node.name
        node.disk.set_capacity(node.spec.disk_bandwidth * self.disk_factor)
        node.nic_in.set_capacity(node.spec.nic_bandwidth * self.nic_factor)
        node.nic_out.set_capacity(node.spec.nic_bandwidth * self.nic_factor)
        rt.trace.log("fault_injected", fault="slow-node", node=node.name,
                     disk_factor=self.disk_factor, nic_factor=self.nic_factor)
        if self.duration is None:
            return
        yield rt.sim.timeout(self.duration)
        self.recovered_at = rt.sim.now
        # Restore to spec even if the node died meanwhile — harmless,
        # and a later restart should come back at full speed.
        node.disk.set_capacity(node.spec.disk_bandwidth)
        node.nic_in.set_capacity(node.spec.nic_bandwidth)
        node.nic_out.set_capacity(node.spec.nic_bandwidth)
        rt.trace.log("fault_recovered", fault="slow-node", node=node.name)
