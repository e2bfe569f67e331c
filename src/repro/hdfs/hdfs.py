"""Simulated HDFS NameNode + DataNode behaviour."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cluster import Cluster
from repro.cluster.node import MB, Node
from repro.sim.core import Interrupt, Process, SimulationError, Simulator
from repro.sim.flows import FlowCancelled

__all__ = [
    "Block",
    "Hdfs",
    "HdfsConfig",
    "HdfsError",
    "HdfsFile",
    "ReplicationLevel",
]


class HdfsError(Exception):
    """Base error for file-system operations."""


class ReplicationLevel(enum.Enum):
    """How far replicas are allowed to spread (paper §V-D / Fig. 13).

    - ``NODE``: all replicas stay on the writer (no network cost).
    - ``RACK``: remote replicas stay inside the writer's rack.
    - ``CLUSTER``: standard HDFS policy — second replica off-rack.
    """

    NODE = "node"
    RACK = "rack"
    CLUSTER = "cluster"


@dataclass(frozen=True)
class HdfsConfig:
    """Table I values relevant to HDFS."""

    block_size: float = 128.0 * MB
    replication: int = 2
    level: ReplicationLevel = ReplicationLevel.CLUSTER

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise SimulationError("block size must be positive")
        if self.replication < 1:
            raise SimulationError("replication must be >= 1")


@dataclass
class Block:
    """One HDFS block and the nodes currently holding a replica."""

    block_id: int
    path: str
    size: float
    replicas: list[Node] = field(default_factory=list)

    def live_replicas(self) -> list[Node]:
        return [n for n in self.replicas if n.alive]

    @property
    def lost(self) -> bool:
        return not self.live_replicas()


@dataclass
class HdfsFile:
    path: str
    size: float
    blocks: list[Block] = field(default_factory=list)

    @property
    def available(self) -> bool:
        return all(not b.lost for b in self.blocks)


class Hdfs:
    """NameNode metadata plus simulated data-plane operations."""

    def __init__(self, sim: Simulator, cluster: Cluster, config: HdfsConfig | None = None) -> None:
        self.sim = sim
        self.cluster = cluster
        self.config = config or HdfsConfig()
        self.rng = cluster.rng
        self._files: dict[str, HdfsFile] = {}
        self._next_block = 0
        #: Nodes eligible to store blocks (excludes e.g. the RM/NameNode host).
        self.datanodes: list[Node] = list(cluster.nodes)
        cluster.failure_listeners.append(self._on_node_failure)
        cluster.rejoin_listeners.append(self._on_node_rejoin)

    # -- metadata -----------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def file(self, path: str) -> HdfsFile:
        try:
            return self._files[path]
        except KeyError:
            raise HdfsError(f"no such file: {path}") from None

    def blocks(self, path: str) -> list[Block]:
        return self.file(path).blocks

    def delete(self, path: str) -> None:
        f = self._files.pop(path, None)
        if f is None:
            return
        for b in f.blocks:
            for n in b.live_replicas():
                n.delete_file(self._replica_path(b))

    def _replica_path(self, block: Block) -> str:
        return f"hdfs/{block.path}/blk_{block.block_id}"

    def _new_block(self, path: str, size: float) -> Block:
        self._next_block += 1
        return Block(self._next_block, path, size, [])

    # -- placement --------------------------------------------------------
    def _choose_replicas(
        self, writer: Node | None, replication: int, level: ReplicationLevel
    ) -> list[Node]:
        """Pick replica nodes for one block.

        First replica is the writer when it is a live datanode
        (HDFS's write-locality rule); remaining replicas follow the
        configured spread level.
        """
        alive = [n for n in self.datanodes if n.alive and n.reachable]
        if not alive:
            raise HdfsError("no live datanodes")
        chosen: list[Node] = []
        if writer is not None and writer.alive and writer.reachable and writer in self.datanodes:
            chosen.append(writer)
        else:
            chosen.append(alive[int(self.rng.integers(len(alive)))])
        anchor = chosen[0]

        if level is ReplicationLevel.NODE:
            # All replicas collapse onto the writer: no replication traffic.
            return chosen

        def pick(pool: list[Node]) -> Node | None:
            pool = [n for n in pool if n not in chosen]
            if not pool:
                return None
            return pool[int(self.rng.integers(len(pool)))]

        while len(chosen) < replication:
            if level is ReplicationLevel.RACK:
                cand = pick([n for n in alive if n.rack is anchor.rack])
            else:  # CLUSTER: second replica off-rack, rest anywhere
                if len(chosen) == 1:
                    cand = pick([n for n in alive if n.rack is not anchor.rack]) or pick(alive)
                else:
                    cand = pick(alive)
            if cand is None:
                break  # cluster too small for the requested replication
            chosen.append(cand)
        return chosen

    # -- bulk ingest (no simulated time) ------------------------------------
    def ingest(self, path: str, size: float, replication: int | None = None) -> HdfsFile:
        """Instantly materialise a file (e.g. job input before t=0)."""
        if self.exists(path):
            raise HdfsError(f"file exists: {path}")
        repl = replication if replication is not None else self.config.replication
        f = HdfsFile(path, float(size))
        remaining = float(size)
        alive = [n for n in self.datanodes if n.alive and n.reachable]
        start = int(self.rng.integers(len(alive)))
        i = 0
        while remaining > 0:
            bsize = min(self.config.block_size, remaining)
            block = self._new_block(path, bsize)
            # Spread primaries round-robin so map input is balanced.
            primary = alive[(start + i) % len(alive)]
            block.replicas = self._choose_replicas(primary, repl, ReplicationLevel.CLUSTER)
            for n in block.replicas:
                n.write_file(self._replica_path(block), bsize, kind="hdfs")
            f.blocks.append(block)
            remaining -= bsize
            i += 1
        self._files[path] = f
        return f

    # -- write path ----------------------------------------------------------
    def write(
        self,
        writer: Node,
        path: str,
        size: float,
        replication: int | None = None,
        level: ReplicationLevel | None = None,
        overwrite: bool = False,
    ) -> Process:
        """Write ``size`` bytes from ``writer`` as ``path``.

        Returns a process event; its value is the :class:`HdfsFile`.
        The write is a replication pipeline: the writer streams to its
        local disk and forwards to the next replica concurrently, so
        wall time is governed by the slowest hop — which is what makes
        cluster-level replication expensive (Fig. 13).
        """
        repl = replication if replication is not None else self.config.replication
        lvl = level if level is not None else self.config.level
        return self.sim.process(
            self._write_proc(writer, path, size, repl, lvl, overwrite),
            name=f"hdfs-write:{path}",
        )

    def _write_proc(self, writer, path, size, repl, lvl, overwrite):
        if self.exists(path):
            if not overwrite:
                raise HdfsError(f"file exists: {path}")
            self.delete(path)
        f = HdfsFile(path, float(size))
        remaining = float(size)
        while remaining > 0:
            bsize = min(self.config.block_size, remaining)
            block = self._new_block(path, bsize)
            targets = self._choose_replicas(writer, repl, lvl)
            # The whole replication pipeline starts at one instant, so
            # open it as a single batch: one progress advance and one
            # deferred rate recompute for all pipeline stages.
            with self.cluster.flows.batch():
                flows = []
                if targets[0] is writer:
                    flows.append(self.cluster.disk_write(writer, bsize,
                                                         name=f"hdfs-w{block.block_id}"))
                else:
                    # Writer is not a datanode (or not usable): stream the
                    # block to the first replica over the network.
                    flows.append(self.cluster.net_transfer(
                        writer, targets[0], bsize, name=f"hdfs-w{block.block_id}",
                        read_src_disk=False, write_dst_disk=True))
                prev = targets[0]
                for nd in targets[1:]:
                    flows.append(
                        self.cluster.net_transfer(
                            prev, nd, bsize,
                            name=f"hdfs-pipe{block.block_id}",
                            read_src_disk=False,
                            write_dst_disk=True,
                        )
                    )
                    prev = nd
            try:
                yield self.sim.all_of([fl.done for fl in flows])
            except FlowCancelled as exc:
                # A pipeline node died; real HDFS rebuilds the pipeline with
                # the survivors. Retry the block with a fresh replica set.
                self.cluster.flows.cancel_many(
                    [fl for fl in flows if fl.active], "pipeline rebuild")
                if not writer.alive:
                    raise HdfsError(f"writer died during write of {path}") from exc
                continue
            except Interrupt:
                # The writing task was killed: abandon the file and drop
                # the in-flight pipeline instead of streaming into the
                # void as an orphaned flow.
                self.cluster.flows.cancel_many(
                    [fl for fl in flows if fl.active], "write abandoned")
                return None
            block.replicas = [n for n in targets if n.alive]
            for n in block.replicas:
                n.write_file(self._replica_path(block), bsize, kind="hdfs")
            f.blocks.append(block)
            remaining -= bsize
        # A replica holder may die after its block's pipeline finished
        # but before file close. The file is only registered at close,
        # so ``_on_node_failure`` never saw it — prune the casualties
        # here (real HDFS validates replica lists at close the same way).
        for b in f.blocks:
            b.replicas = [n for n in b.replicas if n.alive]
        self._files[path] = f
        return f

    # -- split reads (``MapAttempt.run`` streams them) ----------------------
    def _ordered_replicas(self, reader: Node, block: Block) -> list[Node]:
        """Replicas sorted by locality: local, rack-local, remote."""

        def rank(n: Node) -> int:
            if n is reader:
                return 0
            return 1 if n.rack is reader.rack else 2

        live = [n for n in block.live_replicas() if n.reachable or n is reader]
        return sorted(live, key=rank)

    # -- failure handling --------------------------------------------------
    def _on_node_failure(self, node: Node) -> None:
        if node.alive:
            return  # network-only failure keeps replicas intact
        for f in self._files.values():
            for b in f.blocks:
                if node in b.replicas:
                    b.replicas = [n for n in b.replicas if n is not node]

    def _on_node_rejoin(self, node: Node) -> None:
        """DataNode block report: a rejoining node re-registers every
        replica that survived on its disk. A healed partition never
        pruned metadata, so this only matters after a crash+restart —
        the NameNode forgot the replicas, the disk did not."""
        if not node.reachable:
            return
        for f in self._files.values():
            for b in f.blocks:
                if node not in b.replicas and node.has_file(self._replica_path(b)):
                    b.replicas.append(node)
