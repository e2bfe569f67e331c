"""Cluster topology and data-movement verbs.

All byte movement in the simulation goes through the methods here so
that every transfer contends on the right devices:

- ``disk_read`` / ``disk_write``: the node's fair-shared SSD.
- ``net_transfer``: source disk (optional) -> source NIC egress ->
  [inter-rack core link if racks differ] -> destination NIC ingress ->
  destination disk (optional).

Node failure verbs (``crash_node``, ``stop_network``) flip liveness and
cancel every in-flight flow touching the victim's devices, which is how
remote peers experience a dead machine: their transfers abort with
:class:`~repro.sim.flows.FlowCancelled`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from repro.cluster.node import GB, MB, Node, NodeSpec, Rack
from repro.sim.core import Event, SimulationError, Simulator
from repro.sim.flows import Flow, FlowScheduler, LinkResource

__all__ = ["COLUMNAR_FLOW_MIN_NODES", "SCHEDULERS", "Cluster", "ClusterSpec",
           "flow_scheduler_class", "scheduler_choice"]

#: Clusters with at least this many nodes get the columnar flow
#: scheduler; smaller ones the incremental one. The crossover was
#: measured on shuffle-heavy Terasort jobs (DESIGN.md §13): below it
#: numpy's per-call overhead on small flow components costs more than
#: the vectorized refill saves.
COLUMNAR_FLOW_MIN_NODES = 160

#: The values ``REPRO_SCHEDULER`` accepts, ``""`` (unset) selecting the
#: default. The flow-scheduler choice, the trial cache key and the
#: differential matrix all read this tuple, so a new choice cannot be
#: left out of one.
SCHEDULERS = ("", "incremental", "columnar", "reference")


def scheduler_choice() -> str:
    """The ``REPRO_SCHEDULER`` value, the one environment setting the
    package reads. Any value outside :data:`SCHEDULERS` raises, so a
    mistyped oracle run cannot silently check the default
    implementation against itself."""
    choice = os.environ.get("REPRO_SCHEDULER", "")
    if choice not in SCHEDULERS:
        raise SimulationError(f"unknown REPRO_SCHEDULER {choice!r}")
    return choice


def flow_scheduler_class(num_nodes: int):
    """The flow scheduler implementation for a cluster of ``num_nodes``.

    By default the choice follows the cluster's size (see
    :data:`COLUMNAR_FLOW_MIN_NODES`). The ``REPRO_SCHEDULER``
    environment variable forces one: ``incremental`` (the scalar
    coalescing scheduler), ``columnar`` (vectorized refill over flow
    columns) or ``reference`` (the eager full-recompute seed
    implementation, kept as the equivalence oracle). All three are
    bit-identical."""
    choice = scheduler_choice()
    if choice == "":
        choice = "columnar" if num_nodes >= COLUMNAR_FLOW_MIN_NODES else "incremental"
    if choice == "reference":
        from repro.sim.flows_reference import ReferenceFlowScheduler

        return ReferenceFlowScheduler
    if choice == "columnar":
        from repro.sim.flows_columnar import ColumnarFlowScheduler

        return ColumnarFlowScheduler
    return FlowScheduler


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster.

    The default mirrors the paper's testbed: 21 machines (one dedicated
    to RM/NameNode, 20 workers), two racks, 10 GbE. ``core_bandwidth``
    is the aggregate inter-rack capacity; it is deliberately modest (an
    oversubscribed core) so that cluster-level replication is visibly
    more expensive than rack-local traffic (paper Fig. 13).
    """

    num_nodes: int = 21
    num_racks: int = 2
    node: NodeSpec = NodeSpec()
    core_bandwidth: float = 2.5 * GB
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise SimulationError("need at least one node")
        if not 1 <= self.num_racks <= self.num_nodes:
            raise SimulationError("num_racks must be in [1, num_nodes]")
        if not 0 < self.core_bandwidth < math.inf:
            raise SimulationError("core bandwidth must be positive and finite")


class Cluster:
    """The simulated machine room."""

    def __init__(self, sim: Simulator, spec: ClusterSpec | None = None) -> None:
        self.sim = sim
        self.spec = spec or ClusterSpec()
        self.flows = flow_scheduler_class(self.spec.num_nodes)(sim)
        self.rng = np.random.default_rng(self.spec.seed)
        self.core_link = LinkResource("core-switch", self.spec.core_bandwidth)
        self.racks = [Rack(i) for i in range(self.spec.num_racks)]
        self.nodes: list[Node] = []
        for i in range(self.spec.num_nodes):
            rack = self.racks[i % self.spec.num_racks]
            node = Node(i, rack, self.spec.node)
            rack.add(node)
            self.nodes.append(node)
        #: Listeners invoked as fn(node) when a node dies or loses network.
        self.failure_listeners: list = []
        #: Listeners invoked as fn(node) when a node comes back
        #: (network heal or machine restart). Subscribers re-register
        #: state the failure hid: the RM builds a fresh NodeManager, the
        #: NameNode takes a block report.
        self.rejoin_listeners: list = []

    # -- lookup ---------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def reachable_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.reachable]

    def same_rack(self, a: Node, b: Node) -> bool:
        return a.rack is b.rack

    # -- data movement -----------------------------------------------------
    def disk_read(self, node: Node, size: float, name: str = "disk-read") -> Flow:
        self._check_up(node)
        return self.flows.transfer(size, [node.disk], f"{name}@{node.name}")

    def disk_write(self, node: Node, size: float, name: str = "disk-write") -> Flow:
        self._check_up(node)
        return self.flows.transfer(size, [node.disk], f"{name}@{node.name}")

    def net_transfer(
        self,
        src: Node,
        dst: Node,
        size: float,
        name: str = "net",
        read_src_disk: bool = True,
        write_dst_disk: bool = False,
    ) -> Flow:
        """Move ``size`` bytes from ``src`` to ``dst`` over the network.

        Raises :class:`SimulationError` immediately if either endpoint
        is unreachable *now*; mid-flight failures surface as
        ``FlowCancelled`` on the returned flow's ``done`` event.
        """
        if src is dst:
            # Local "transfer": loopback never leaves the host.
            res: list[LinkResource] = []
            if read_src_disk:
                res.append(src.disk)
            if write_dst_disk and dst.disk not in res:
                res.append(dst.disk)
            if not res:
                # Pure memory copy; generously fast but finite.
                return self.flows.transfer(size, [], name, rate_cap=4.0 * GB)
            self._check_reachable(src)
            return self.flows.transfer(size, res, f"{name}:{src.name}->{dst.name}")
        self._check_reachable(src)
        self._check_reachable(dst)
        res = []
        if read_src_disk:
            res.append(src.disk)
        res.append(src.nic_out)
        if not self.same_rack(src, dst):
            res.append(self.core_link)
        res.append(dst.nic_in)
        if write_dst_disk:
            res.append(dst.disk)
        return self.flows.transfer(size, res, f"{name}:{src.name}->{dst.name}")

    def compute(self, node: Node, seconds: float) -> Event:
        """CPU work: containers own their cores, so compute is a plain
        delay (no contention modelling)."""
        self._check_up(node)
        if seconds < 0:
            raise SimulationError(f"negative compute time: {seconds}")
        return self.sim.timeout(seconds)

    # -- failures ---------------------------------------------------------------
    def crash_node(self, node: Node) -> None:
        """Power failure: processes die, local files are gone, NIC drops."""
        if not node.alive:
            return
        node.alive = False
        node.network_up = False
        self._sever(node, reason=f"{node.name} crashed")
        self._notify(node)

    def stop_network(self, node: Node) -> None:
        """The paper's node-failure injection: stop network services.

        The machine stays up (files intact, local processes running)
        but is unreachable — indistinguishable from a crash to peers.
        """
        if not node.network_up:
            return
        node.network_up = False
        self._sever(node, reason=f"{node.name} network down", include_disk=False)
        self._notify(node)

    # -- recovery ---------------------------------------------------------------
    def restore_network(self, node: Node) -> None:
        """Heal a :meth:`stop_network` partition: the machine was up the
        whole time (files and local processes intact), it just becomes
        reachable again. No-op on a dead or already-connected node."""
        if not node.alive or node.network_up:
            return
        node.network_up = True
        self._notify_rejoin(node)

    def restart_node(self, node: Node) -> None:
        """Bring a crashed machine back up.

        The disk survives the power cycle (real crashes do not erase
        disks), so surviving replicas can be re-registered by rejoin
        listeners — the HDFS "block report" path.
        """
        if node.alive:
            return
        node.alive = True
        node.network_up = True
        self._notify_rejoin(node)

    def _sever(self, node: Node, reason: str, include_disk: bool = True) -> None:
        # One batched sweep over all of the victim's device directions:
        # every flow touching the node is cancelled with a single
        # progress advance and one deferred rate recompute, instead of
        # the seed's three per-victim cancel sweeps.
        resources = [node.nic_in, node.nic_out]
        if include_disk:
            resources.append(node.disk)
        self.flows.cancel_flows_using(resources, reason)

    def _notify(self, node: Node) -> None:
        for fn in list(self.failure_listeners):
            fn(node)

    def _notify_rejoin(self, node: Node) -> None:
        for fn in list(self.rejoin_listeners):
            fn(node)

    # -- guards --------------------------------------------------------------
    def _check_up(self, node: Node) -> None:
        if not node.alive:
            raise SimulationError(f"{node.name} is dead")

    def _check_reachable(self, node: Node) -> None:
        if not node.reachable:
            raise SimulationError(f"{node.name} is unreachable")


# Re-export the byte-size helpers next to the class that uses them.
__all__ += ["GB", "MB"]
