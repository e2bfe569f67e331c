"""Node, rack and local-file abstractions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.core import SimulationError
from repro.sim.flows import LinkResource

__all__ = ["LocalFile", "Node", "NodeSpec", "Rack"]

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one machine.

    Defaults follow the paper's testbed: hex-core Xeons (we expose 24
    hardware threads as 4 sockets x 6 cores), 24 GB RAM, one SATA SSD
    (~400 MB/s aggregate) and a 10 GbE NIC (~1.15 GB/s per direction).
    """

    cores: int = 24
    memory_mb: int = 24 * 1024
    disk_bandwidth: float = 400.0 * MB
    nic_bandwidth: float = 1150.0 * MB

    def __post_init__(self) -> None:
        if self.cores < 1 or self.memory_mb < 1:
            raise SimulationError("node needs at least 1 core and 1 MB of memory")
        if not (0 < self.disk_bandwidth < math.inf and 0 < self.nic_bandwidth < math.inf):
            raise SimulationError("bandwidths must be positive and finite")


@dataclass
class LocalFile:
    """A file on a node's local file system (MOF, spill, merge output)."""

    path: str
    size: float
    kind: str = "data"


class Node:
    """One machine: identity, liveness, devices and local files."""

    def __init__(self, node_id: int, rack: "Rack", spec: NodeSpec) -> None:
        self.node_id = node_id
        self.rack = rack
        self.spec = spec
        self.name = f"node-{node_id}"
        self.alive = True
        self.network_up = True
        self.disk = LinkResource(f"{self.name}/disk", spec.disk_bandwidth)
        self.nic_in = LinkResource(f"{self.name}/nic-in", spec.nic_bandwidth)
        self.nic_out = LinkResource(f"{self.name}/nic-out", spec.nic_bandwidth)
        self._files: dict[str, LocalFile] = {}

    # -- liveness -----------------------------------------------------------
    @property
    def reachable(self) -> bool:
        """A node serves remote requests only if it is up *and* its
        network is up; the two fault modes are distinguishable locally
        but identical to remote observers."""
        return self.alive and self.network_up

    # -- local files ----------------------------------------------------------
    def write_file(self, path: str, size: float, kind: str = "data") -> LocalFile:
        if not self.alive:
            raise SimulationError(f"write on dead {self.name}")
        f = LocalFile(path, float(size), kind)
        self._files[path] = f
        return f

    def has_file(self, path: str) -> bool:
        return self.alive and path in self._files

    def delete_file(self, path: str) -> None:
        self._files.pop(path, None)

    def files(self, kind: str | None = None) -> list[LocalFile]:
        fs = list(self._files.values())
        return fs if kind is None else [f for f in fs if f.kind == kind]

    def local_bytes(self, kind: str | None = None) -> float:
        return sum(f.size for f in self.files(kind))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "down"
        return f"<Node {self.name} rack={self.rack.rack_id} {state}>"


class Rack:
    """A group of nodes behind one top-of-rack switch."""

    def __init__(self, rack_id: int) -> None:
        self.rack_id = rack_id
        self.nodes: list[Node] = []

    def add(self, node: Node) -> None:
        self.nodes.append(node)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Rack {self.rack_id} nodes={len(self.nodes)}>"
