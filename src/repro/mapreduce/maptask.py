"""MapTask attempt: read split -> map function -> sort/spill -> MOF."""

from __future__ import annotations

from repro.cluster.node import MB
from repro.mapreduce.config import TASK_STARTUP_SECONDS
from repro.mapreduce.mof import MapOutput
from repro.mapreduce.tasks import Task, TaskAttempt, TaskFailed
from repro.sim.flows import FlowCancelled
from repro.yarn.rm import Container

__all__ = ["MapAttempt"]

#: Weights of the three stages in the attempt's progress report.
_READ_W, _CPU_W, _WRITE_W = 0.35, 0.35, 0.30


class MapAttempt(TaskAttempt):
    """One execution of a MapTask.

    Cost model: read the 128 MB split (locality-aware, with replica
    failover), burn map CPU proportional to input bytes, then write the
    MOF to the local disk — with one extra read+write merge pass when
    the output exceeds the map-side sort buffer (``io.sort.mb``),
    matching Hadoop's multi-spill merge.
    """

    def __init__(self, am, task: Task, container: Container) -> None:
        super().__init__(am, task, container)
        self._stage = "init"
        self._stage_frac = 0.0
        self._read_flow = None
        self._write_flow = None
        #: Where the split was read from: data-local / rack-local / off-rack.
        self.locality: str | None = None

    @property
    def progress(self) -> float:
        if self._stage == "init":
            return 0.0
        if self._stage == "read":
            frac = self._read_flow.progress if self._read_flow is not None else 0.0
            return _READ_W * frac
        if self._stage == "cpu":
            return _READ_W + _CPU_W * self._stage_frac
        if self._stage == "write":
            frac = self._write_flow.progress if self._write_flow is not None else 0.0
            return _READ_W + _CPU_W + _WRITE_W * frac
        return 1.0

    def run(self):
        wl = self.am.workload
        conf = self.am.conf
        block = self.task.block
        assert block is not None, "map task needs an input split"

        yield self._guard(self.sim.timeout(TASK_STARTUP_SECONDS))

        # 1. Read the input split, preferring local then rack-local
        # replicas, failing over if a source dies mid-read.
        self._stage = "read"
        candidates = self.am.hdfs._ordered_replicas(self.node, block)
        if not candidates:
            raise TaskFailed("input-block-lost")
        # Map attempts are strictly sequential (read, compute, write);
        # each step is a single flow admission, so they ride on the
        # scheduler's same-instant coalescing with no explicit batching.
        read_ok = False
        for src in candidates:
            try:
                if src is self.node:
                    fl = self.cluster.disk_read(self.node, block.size, name=f"split:{self.attempt_id}")
                else:
                    fl = self.cluster.net_transfer(src, self.node, block.size,
                                                   name=f"split:{self.attempt_id}")
            except Exception:
                continue
            self._read_flow = self._flow(fl)
            try:
                yield self._guard(fl.done)
                read_ok = True
                if src is self.node:
                    self.locality = "data-local"
                elif src.rack is self.node.rack:
                    self.locality = "rack-local"
                else:
                    self.locality = "off-rack"
                break
            except FlowCancelled:
                continue
        if not read_ok:
            raise TaskFailed("input-block-lost")

        # 2. Map function CPU.
        self._stage = "cpu"
        cpu_s = wl.map_cpu_per_mb * (block.size / MB)
        yield self._guard(self.cluster.compute(self.node, cpu_s))
        self._stage_frac = 1.0

        # 3. Sort/spill the MOF to local disk. Output larger than the
        # sort buffer costs an extra merge pass (read + write).
        self._stage = "write"
        out_size = block.size * wl.map_selectivity
        write_bytes = out_size
        if out_size > conf.io_sort_mb:
            write_bytes += 2.0 * out_size  # spill-merge: re-read + re-write
        if write_bytes > 0:
            self._write_flow = self._flow(
                self.cluster.disk_write(self.node, write_bytes, name=f"mof:{self.attempt_id}")
            )
            yield self._guard(self._write_flow.done)
        self._stage_frac = 1.0
        self._stage = "done"

        weights = self.am.partition_weights
        mof = MapOutput(
            map_id=self.task.task_id,
            attempt_id=self.attempt_id,
            node=self.node,
            partition_sizes=out_size * weights,
        )
        if self.node.alive:
            self.node.write_file(mof.path, out_size, kind="mof")
        return mof
