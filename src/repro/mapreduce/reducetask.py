"""ReduceTask attempt: shuffle -> merge -> reduce, with Hadoop's
fetch-retry, host-penalty and reducer-health (suicide) semantics.

This module is where the paper's pathologies live:

- Fetchers batch all pending map outputs per host (as Hadoop's
  fetchers do per connection). A host that stops responding costs
  ``fetch_retries_per_host`` connect timeouts with exponential backoff
  before the round is abandoned.
- An abandoned round is reported to the AM (fetch-failure report) and
  the host is revisited after a penalty — unless the recovery policy
  says to *wait* (SFM's wait-don't-fail directive).
- After each failure the reducer runs Hadoop's ``checkReducerHealth``:
  it kills itself when cumulative failures dominate its progress or
  when it has progressed far and then stalls. This is exactly the
  mechanism that amplifies a single node loss into additional
  ReduceTask failures (Figs. 3 & 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cluster.node import MB, Node
from repro.mapreduce.config import (
    FETCH_CONNECT_TIMEOUT, FETCH_RETRY_BASE_DELAY, MAX_ALLOWED_FAILED_FETCH_FRACTION,
    MIN_REQUIRED_PROGRESS_FRACTION, OUTPUT_REPLICATION, TASK_STARTUP_SECONDS,
)
from repro.mapreduce.mof import MapOutput
from repro.mapreduce.tasks import Task, TaskAttempt
from repro.sim.core import Interrupt, SimulationError
from repro.sim.flows import FlowCancelled
from repro.sim.resources import Store
from repro.yarn.rm import Container

__all__ = ["DiskSegment", "ReduceAttempt", "ReduceRecoveryState"]

_seg_ids = itertools.count(1)


@dataclass
class DiskSegment:
    """A sorted run on the reducer's local disk (spill or merge output)."""

    path: str
    size: float
    node: Node

    def exists(self) -> bool:
        return self.node.has_file(self.path)


@dataclass
class ReduceRecoveryState:
    """State restored into a recovering ReduceTask from ALG logs.

    ``disk_segments`` are reusable only when the new attempt lands on
    the node that still has the files (transient task failure); a
    migrated attempt can only use ``reduce_resume_fraction``, which ALG
    stores on HDFS (paper §III-B).
    """

    fetched_map_ids: set[int] = field(default_factory=set)
    disk_segments: list[DiskSegment] = field(default_factory=list)
    mem_flushed_bytes: float = 0.0
    reduce_resume_fraction: float = 0.0


class ReduceAttempt(TaskAttempt):
    """One execution of a ReduceTask."""

    def __init__(self, am, task: Task, container: Container,
                 recovery: ReduceRecoveryState | None = None) -> None:
        super().__init__(am, task, container)
        self.partition = task.partition_index
        assert self.partition is not None
        self.num_maps = am.num_maps
        conf = am.conf

        # -- shuffle state ---------------------------------------------------
        self.fetched: set[int] = set()
        self.host_pending: dict[int, dict[int, MapOutput]] = {}
        self._host_queue: Store = Store(self.sim)
        self._hosts_queued: set[int] = set()
        self.mem_segments: list[float] = []
        self.mem_bytes = 0.0
        self.disk_segments: list[DiskSegment] = []
        #: Bytes currently being flushed from memory to disk.
        self._flushing_bytes = 0.0
        #: Map ids currently being fetched by some fetcher.
        self._inflight: set[int] = set()
        self.shuffled_bytes = 0.0
        self.total_failures = 0
        self.unique_failed: set[int] = set()
        self.last_shuffle_progress = self.sim.now
        self.shuffle_done = self.sim.event()
        self._merge_kick: Store = Store(self.sim)

        # -- stage tracking ----------------------------------------------------
        self.stage = "init"
        self._merge_frac = 0.0
        self._reduce_flow = None
        self._reduce_cpu_started: float | None = None
        self._reduce_cpu_seconds = 0.0
        self.reduce_resume_fraction = 0.0
        self.recovery = recovery
        # Spill knobs as instance attributes so in-memory-shuffle
        # variants (M3R) can lift them without forking the fetch/merge
        # machinery.
        self._buffer = conf.shuffle_buffer_bytes
        self._single_segment_max = conf.shuffle_single_segment_max
        self._merge_trigger = conf.shuffle_merge_trigger_bytes
        self._registered = False

    # -- progress ----------------------------------------------------------
    @property
    def progress(self) -> float:
        if self.stage in ("init",):
            return 0.0
        if self.stage == "shuffle":
            return (len(self.fetched) / max(self.num_maps, 1)) / 3.0
        if self.stage == "merge":
            return 1.0 / 3.0 + self._merge_frac / 3.0
        if self.stage == "reduce":
            return 2.0 / 3.0 + self.reduce_progress_fraction / 3.0
        return 1.0

    @property
    def reduce_progress_fraction(self) -> float:
        """Fraction of the reduce stage completed (includes resumed work)."""
        resume = self.reduce_resume_fraction
        if self.stage != "reduce":
            return resume
        # The stage streams read/compute/write concurrently; the slowest
        # component is the honest progress signal.
        parts = []
        if self._reduce_flow is not None and self._reduce_flow.size > 0:
            parts.append(self._reduce_flow.progress)
        if self._reduce_cpu_started is not None and self._reduce_cpu_seconds > 0:
            parts.append(min(1.0, (self.sim.now - self._reduce_cpu_started) / self._reduce_cpu_seconds))
        live = min(parts) if parts else 0.0
        return resume + (1.0 - resume) * live

    @property
    def total_input_bytes(self) -> float:
        return self.mem_bytes + self._flushing_bytes + sum(s.size for s in self.disk_segments)

    # -- AM-facing API ----------------------------------------------------------
    def notify_mof(self, mof: MapOutput) -> None:
        """The AM announces a completed map's output location."""
        if mof.map_id in self.fetched:
            return
        self.unique_failed.discard(mof.map_id)
        pending = self.host_pending.setdefault(mof.node.node_id, {})
        pending[mof.map_id] = mof
        self._enqueue_host(mof.node.node_id)

    def drop_mof(self, map_id: int) -> None:
        """The AM invalidated a MOF (its node is known-lost under SFM)."""
        for pending in self.host_pending.values():
            pending.pop(map_id, None)

    def _enqueue_host(self, node_id: int) -> None:
        if node_id not in self._hosts_queued:
            self._hosts_queued.add(node_id)
            self._host_queue.put(node_id)

    def _requeue_moved(self, node_id: int, batch: dict[int, MapOutput]) -> None:
        # While these ids were in-flight against ``node_id``, a
        # regenerated MOF may have been announced at a new host; that
        # host's queue entry was consumed with an empty batch (the ids
        # were still in-flight), so nothing would ever fetch from it
        # again. Re-queue any other host still holding one of them.
        moved = {mid for mid in batch if mid not in self.fetched}
        if not moved:
            return
        for other, pending in self.host_pending.items():
            if other != node_id and moved & pending.keys():
                self._enqueue_host(other)

    # -- main attempt body --------------------------------------------------
    def run(self):
        conf = self.am.conf
        wl = self.am.workload
        yield self._guard(self.sim.timeout(TASK_STARTUP_SECONDS))

        if self.recovery is not None:
            self._apply_recovery(self.recovery)

        self.stage = "shuffle"
        self.am.register_reducer(self)
        self._registered = True
        try:
            self._check_shuffle_complete()
            if not self.shuffle_done.triggered:
                for i in range(conf.num_fetchers):
                    self._spawn(self._fetcher(i), name=f"{self.attempt_id}.fetch{i}")
                self._spawn(self._merger(), name=f"{self.attempt_id}.merger")
                self._spawn(self._health_loop(), name=f"{self.attempt_id}.health")
            yield self._guard(self.shuffle_done)
        finally:
            if self._registered:
                self.am.unregister_reducer(self)
                self._registered = False

        # Wait out any in-flight memory flush so segment accounting is
        # complete before merge planning.
        while self._flushing_bytes > 1.0:
            yield self._guard(self.sim.timeout(0.5))

        # Final merge: bring on-disk runs down to io.sort.factor.
        self.stage = "merge"
        yield from self._final_merge()
        self._merge_frac = 1.0

        # Reduce: stream the MPQ through the reduce function into HDFS.
        self.stage = "reduce"
        yield from self._reduce_stage(wl, conf)
        self.stage = "done"
        return {
            "output_bytes": self.total_input_bytes * wl.reduce_selectivity,
            "input_bytes": self.total_input_bytes,
        }

    # -- recovery restore -----------------------------------------------------
    def _apply_recovery(self, rec: ReduceRecoveryState) -> None:
        """Adopt logged progress. Disk segments are only reusable if
        this attempt runs where the files still are."""
        reusable = [s for s in rec.disk_segments if s.node is self.node and s.exists()]
        if len(reusable) == len(rec.disk_segments) and rec.disk_segments:
            self.disk_segments = list(reusable)
            self.fetched = set(rec.fetched_map_ids)
            self.shuffled_bytes = sum(s.size for s in reusable) + rec.mem_flushed_bytes
        # Reduce-stage logs live on HDFS and imply shuffle finished; a
        # migrated attempt must still re-shuffle the bytes unless its
        # segments survived locally (adopted above).
        self.reduce_resume_fraction = rec.reduce_resume_fraction

    # -- fetchers --------------------------------------------------------
    def _fetcher(self, idx: int):
        try:
            while True:
                node_id = yield self._host_queue.get()
                self._hosts_queued.discard(node_id)
                pending = self.host_pending.get(node_id, {})
                batch = {mid: mof for mid, mof in pending.items()
                         if mid not in self.fetched and mid not in self._inflight}
                if not batch:
                    continue
                host = self.cluster.node(node_id)
                size = sum(mof.partition(self.partition) for mof in batch.values())
                self._inflight.update(batch)
                try:
                    outcome = yield from self._fetch_round(host, size)
                finally:
                    self._inflight.difference_update(batch)
                if outcome is not None:
                    self._account_success(node_id, batch, size, to_disk=outcome)
                else:
                    yield from self._fetch_round_failed(host, node_id, batch)
                self._requeue_moved(node_id, batch)
        except (Interrupt, SimulationError):
            # Interrupted by attempt cleanup, or our own node died:
            # fetchers die silently with the attempt.
            return

    def _fetch_round(self, host: Node, size: float):
        """Try to pull ``size`` bytes from ``host`` with retries/backoff.
        Returns the to-disk decision on success, None on failure."""
        conf = self.am.conf
        to_disk = (
            size > self._single_segment_max
            or self.mem_bytes + size > self._buffer
        )
        for k in range(conf.fetch_retries_per_host):
            if k > 0:
                yield self.sim.timeout(FETCH_RETRY_BASE_DELAY * (2 ** (k - 1)))
            if not host.reachable:
                yield self.sim.timeout(FETCH_CONNECT_TIMEOUT)
                continue
            try:
                fl = self._flow(self.cluster.net_transfer(
                    host, self.node, size,
                    name=f"shuffle:{self.attempt_id}<-{host.name}",
                    write_dst_disk=to_disk,
                ))
                yield fl.done
                return to_disk
            except FlowCancelled:
                continue
        return None

    def _account_success(self, node_id: int, batch: dict[int, MapOutput], size: float,
                         to_disk: bool) -> None:
        pending = self.host_pending.get(node_id, {})
        for mid in batch:
            pending.pop(mid, None)
            self.fetched.add(mid)
            self.unique_failed.discard(mid)
        self.shuffled_bytes += size
        self.last_shuffle_progress = self.sim.now
        if to_disk:
            self._new_disk_segment(size)
        else:
            self.mem_segments.append(size)
            self.mem_bytes += size
            if self.mem_bytes > self._merge_trigger:
                self._merge_kick.put(True)
        if pending:
            self._enqueue_host(node_id)
        self._check_shuffle_complete()

    def _fetch_round_failed(self, host: Node, node_id: int, batch: dict[int, MapOutput]):
        """A whole round against ``host`` failed; consult the policy."""
        conf = self.am.conf
        action = self.am.policy.on_fetch_giveup(self, host, list(batch))
        if action == "wait":
            # SFM: the AM knows the node is dead and is regenerating the
            # MOFs; drop them from pending quietly — notify_mof will
            # re-add them at their new home. No failure accounting.
            pending = self.host_pending.get(node_id, {})
            for mid in batch:
                pending.pop(mid, None)
            return
        self.total_failures += len(batch)
        self.unique_failed.update(batch)
        self.am.report_fetch_failure(self, list(batch), host)
        self._check_health()
        # Penalise the host, then retry it (Hadoop's host penalty).
        yield self.sim.timeout(conf.host_failure_penalty)
        if any(mid not in self.fetched for mid in self.host_pending.get(node_id, {})):
            self._enqueue_host(node_id)

    def _check_shuffle_complete(self) -> None:
        if len(self.fetched) >= self.num_maps and not self.shuffle_done.triggered:
            self.shuffle_done.succeed()

    # -- reducer health (Hadoop checkReducerHealth) -------------------------
    def _health_loop(self):
        try:
            while not self.shuffle_done.triggered:
                yield self.sim.timeout(5.0)
                if self.unique_failed:
                    self._check_health()
        except Interrupt:
            return

    def _check_health(self) -> None:
        conf = self.am.conf
        done = len(self.fetched)
        failures = self.total_failures
        if failures == 0:
            return
        healthy = failures / (failures + max(done, 1)) < MAX_ALLOWED_FAILED_FETCH_FRACTION
        progressed = done / max(self.num_maps, 1) >= MIN_REQUIRED_PROGRESS_FRACTION
        stall_window = max(conf.reducer_stall_seconds, 0.5 * self.am.max_map_runtime)
        stalled = (self.sim.now - self.last_shuffle_progress) > stall_window
        if (not healthy) or (progressed and stalled and self.unique_failed):
            self.kill("shuffle-fetch-failures")

    # -- merging ------------------------------------------------------------
    def _new_disk_segment(self, size: float) -> DiskSegment:
        seg = DiskSegment(f"spill/{self.attempt_id}/{next(_seg_ids)}", size, self.node)
        if self.node.alive:
            self.node.write_file(seg.path, size, kind="spill")
        self.disk_segments.append(seg)
        return seg

    def _merger(self):
        """Background in-memory merger (spills to disk above the
        trigger threshold, like Hadoop's InMemoryMerger)."""
        try:
            while True:
                yield self._merge_kick.get()
                while self.mem_bytes > self._merge_trigger:
                    yield from self.flush_memory()
        except (Interrupt, FlowCancelled, SimulationError):
            return

    def flush_memory(self):
        """Merge all current in-memory segments into one on-disk run.

        Also invoked by ALG's logging tick (via a temporary merger
        thread in the paper's design) to make shuffle progress durable.
        """
        size = self.mem_bytes
        if size <= 0:
            return None
        wl = self.am.workload
        self.mem_segments.clear()
        self.mem_bytes = 0.0
        self._flushing_bytes += size
        try:
            yield self.cluster.compute(self.node, wl.merge_cpu_per_mb * size / MB)
            fl = self._flow(self.cluster.disk_write(self.node, size, name=f"spill:{self.attempt_id}"))
            yield fl.done
        finally:
            self._flushing_bytes -= size
            if self._flushing_bytes < 1.0:  # float residue from +=/-=
                self._flushing_bytes = 0.0
        seg = self._new_disk_segment(size)
        return seg

    def _final_merge(self):
        """Multi-pass on-disk merge down to io.sort.factor runs."""
        conf = self.am.conf
        wl = self.am.workload
        total_passes = 0
        while len(self.disk_segments) > conf.io_sort_factor:
            self.disk_segments.sort(key=lambda s: s.size)
            group = self.disk_segments[: conf.io_sort_factor]
            self.disk_segments = self.disk_segments[conf.io_sort_factor:]
            bytes_merged = sum(s.size for s in group)
            # Read every run and write the merged run: 2x through the disk.
            fl = self._flow(self.cluster.disk_read(self.node, bytes_merged, name=f"merge-r:{self.attempt_id}"))
            yield self._guard(fl.done)
            yield self._guard(self.cluster.compute(self.node, wl.merge_cpu_per_mb * bytes_merged / MB))
            fl = self._flow(self.cluster.disk_write(self.node, bytes_merged, name=f"merge-w:{self.attempt_id}"))
            yield self._guard(fl.done)
            for s in group:
                self.node.delete_file(s.path)
            self._new_disk_segment(bytes_merged)
            total_passes += 1
            self._merge_frac = min(1.0, 0.5 * total_passes)

    # -- reduce stage -----------------------------------------------------------
    def _reduce_stage(self, wl, conf):
        resume = self.reduce_resume_fraction
        total_in = self.total_input_bytes
        disk_in = sum(s.size for s in self.disk_segments)
        work_frac = 1.0 - resume
        read_bytes = disk_in * work_frac
        # A logged resume charges nothing extra: the MPQ offsets in the
        # log point past the already-consumed prefix, so no bytes of it
        # are re-deserialised. (Without logs a restarted attempt re-runs
        # the whole stage: resume == 0.)
        cpu_s = wl.reduce_cpu_per_mb * (total_in * work_frac) / MB
        out_bytes = total_in * wl.reduce_selectivity * work_frac

        # The input read, reduce CPU and output pipeline all start at
        # this instant; the flow scheduler coalesces the same-timestamp
        # admissions into a single deferred rate recompute, so there is
        # no need to batch() these sequential starts explicitly.
        waits = []
        if read_bytes > 0:
            self._reduce_flow = self._flow(self.cluster.disk_read(
                self.node, read_bytes, name=f"reduce-in:{self.attempt_id}"))
            waits.append(self._reduce_flow.done)
        self._reduce_cpu_seconds = cpu_s
        self._reduce_cpu_started = self.sim.now
        if cpu_s > 0:
            waits.append(self.cluster.compute(self.node, cpu_s))
        if out_bytes > 0:
            out_path = f"out/{self.am.job_name}/{self.attempt_id}"
            level = self.am.policy.reduce_output_level()
            if level is None:
                writer = self.am.hdfs.write(
                    self.node, out_path, out_bytes,
                    replication=OUTPUT_REPLICATION, overwrite=True,
                )
            elif level.value == "node":
                # ALG node-level: stream locally only. Durability is
                # restored by replicating whole blocks at commit
                # (paper §V-D) — lazily, off the task's critical path,
                # so no synchronous charge here.
                writer = self.am.hdfs.write(
                    self.node, out_path, out_bytes,
                    replication=1, level=level, overwrite=True,
                )
            else:
                # Rack level: local + rack replica. Cluster level: a
                # third, off-rack replica rides the core switch — the
                # expensive configuration Fig. 13 quantifies.
                repl = 2 if level.value == "rack" else 3
                writer = self.am.hdfs.write(
                    self.node, out_path, out_bytes,
                    replication=repl, level=level, overwrite=True,
                )
            # Register the write as a child so a killed attempt tears the
            # pipeline down instead of leaving an orphaned HDFS write.
            self._children.append(writer)
            waits.append(writer)
        if waits:
            yield self._guard(self.sim.all_of(waits))
