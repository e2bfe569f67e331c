"""Fast Collective Merging (FCM) — paper §IV-A.

A recovery-mode ReduceTask execution that enlists every node holding
MOF segments for the failed partition:

1. Each participant organises its local segments into a Local-MPQ and
   pre-merges them (local disk read + merge CPU, all nodes in
   parallel).
2. The recovering reducer builds a Global-MPQ whose entries are the
   participants' merged streams and pipelines shuffle, merge and
   reduce: participants stream over the network straight into the
   reduce function — **no intermediate data ever touches the
   recovering node's disk**.

Recovery time is therefore governed by max(slowest participant's local
pre-merge, the recoverer's NIC, reduce CPU, output write) instead of
the serial disk-heavy shuffle->spill->merge->reduce of a stock restart.
The paper advocates FCM only for recovery, not for normal execution,
because of its synchronisation cost — modelled here as a fixed setup
charge plus a per-participant bookkeeping charge.
"""

from __future__ import annotations

from repro.cluster.node import MB
from repro.mapreduce.config import OUTPUT_REPLICATION, TASK_STARTUP_SECONDS
from repro.mapreduce.reducetask import ReduceAttempt
from repro.mapreduce.tasks import TaskFailed
from repro.sim.flows import FlowCancelled

__all__ = ["FCMReduceAttempt", "FCM_SETUP_SECONDS", "FCM_PER_PARTICIPANT_SECONDS"]

#: Fixed synchronisation cost to establish the Local-/Global-MPQs.
FCM_SETUP_SECONDS = 2.0
#: Bookkeeping cost per participant node.
FCM_PER_PARTICIPANT_SECONDS = 0.1
#: Participants dismantle an orphaned Local-MPQ after this long without
#: a request from the recovering ReduceTask (paper §IV-A1). State-only
#: in this model: Local-MPQs hold no disk space.
FCM_DISMANTLE_TIMEOUT = 30.0


class FCMReduceAttempt(ReduceAttempt):
    """A recovering ReduceTask executing in FCM mode."""

    @property
    def progress(self) -> float:
        if self.stage == "fcm-wait":
            return 0.0
        if self.stage == "fcm":
            resume = self.reduce_resume_fraction
            if self._reduce_cpu_started is not None and self._reduce_cpu_seconds > 0:
                live = min(1.0, (self.sim.now - self._reduce_cpu_started) / self._reduce_cpu_seconds)
            else:
                live = self._fcm_frac
            return resume + (1 - resume) * live
        return super().progress

    @property
    def total_input_bytes(self) -> float:
        """FCM keeps nothing on local disk; report the planned stream."""
        total = getattr(self, "_fcm_total", None)
        if total is not None:
            return total
        return super().total_input_bytes

    def run(self):
        wl = self.am.workload
        self._fcm_frac = 0.0
        yield self._guard(self.sim.timeout(TASK_STARTUP_SECONDS))

        if self.recovery is not None:
            self.reduce_resume_fraction = self.recovery.reduce_resume_fraction

        # Wait until every map's MOF is registered (SFM re-executes lost
        # maps at high priority, so this wait is short and bounded by
        # the map-regeneration time the paper accepts in Fig. 10).
        self.stage = "fcm-wait"
        self.am.register_reducer(self)
        self._registered = True
        try:
            while len(self._known_mofs()) < self.num_maps:
                yield self._guard(self.sim.timeout(1.0))
        finally:
            self.am.unregister_reducer(self)
            self._registered = False

        self.stage = "fcm"
        by_node = self._plan_participants()
        self._fcm_total = sum(by_node.values())
        self.am.trace.log("fcm_start", attempt=self.attempt_id,
                          participants=len(by_node))

        # Synchronisation/bookkeeping cost of establishing the MPQs.
        setup = FCM_SETUP_SECONDS + FCM_PER_PARTICIPANT_SECONDS * len(by_node)
        yield self._guard(self.cluster.compute(self.node, setup))

        work_frac = 1.0 - self.reduce_resume_fraction
        total_in = sum(by_node.values()) * work_frac
        waits = []
        # Participants: each loads its segments into the memory-resident
        # Local-MPQ (a pure disk read), pre-merges (CPU) and streams to
        # our Global-MPQ (a pure network flow). The three overlap — the
        # disk read is NOT chained into the network flow, which is what
        # keeps many concurrent FCM recoveries from interlocking all
        # devices into one max-min bottleneck.
        # All participants start streaming at this same instant: batch
        # the whole fan-out so the 2·participants flow admissions share
        # one progress advance and one deferred rate recompute.
        with self.cluster.flows.batch():
            for node_id, size in by_node.items():
                size *= work_frac
                if size <= 0:
                    continue
                src = self.cluster.node(node_id)
                try:
                    fl_load = self._flow(self.cluster.disk_read(
                        src, size, name=f"fcm-load:{self.attempt_id}@{src.name}"))
                    fl_net = self._flow(self.cluster.net_transfer(
                        src, self.node, size,
                        name=f"fcm:{self.attempt_id}<-{src.name}",
                        read_src_disk=False, write_dst_disk=False,
                    ))
                except Exception as exc:
                    raise TaskFailed("fcm-participant-unreachable") from exc
                waits.append(fl_load.done)
                waits.append(fl_net.done)
                # Participant-side pre-merge CPU overlaps its own streaming;
                # charge it as a parallel timeout rather than serialising.
                waits.append(self.cluster.compute(src, wl.merge_cpu_per_mb * size / MB))

        # Recoverer: reduce CPU + HDFS output, overlapped with the
        # incoming streams (the Global-MPQ pipeline).
        cpu_s = wl.reduce_cpu_per_mb * total_in / MB
        self._reduce_cpu_seconds = cpu_s
        self._reduce_cpu_started = self.sim.now
        if cpu_s > 0:
            waits.append(self.cluster.compute(self.node, cpu_s))
        out_bytes = total_in * wl.reduce_selectivity
        if out_bytes > 0:
            out_path = f"out/{self.am.job_name}/{self.attempt_id}"
            writer = self.am.hdfs.write(self.node, out_path, out_bytes,
                                        replication=OUTPUT_REPLICATION,
                                        overwrite=True)
            self._children.append(writer)
            waits.append(writer)
        try:
            yield self._guard(self.sim.all_of(waits))
        except FlowCancelled as exc:
            # A participant died mid-recovery. FCM holds no local state,
            # so the clean response is to fail this attempt and let the
            # policy launch a fresh one (participants dismantle their
            # Local-MPQs after FCM_DISMANTLE_TIMEOUT).
            raise TaskFailed("fcm-participant-lost") from exc
        self._fcm_frac = 1.0
        self.stage = "done"
        self.shuffled_bytes = total_in
        return {"output_bytes": out_bytes, "input_bytes": total_in, "mode": "fcm"}

    # -- helpers ----------------------------------------------------------
    def _known_mofs(self):
        mofs = []
        for map_id in range(self.num_maps):
            mof = self.am.registry.get(map_id)
            if mof is not None and mof.node.reachable:
                mofs.append(mof)
        return mofs

    def _plan_participants(self) -> dict[int, float]:
        """Partition bytes we need, grouped by holder node."""
        by_node: dict[int, float] = {}
        for mof in self._known_mofs():
            by_node.setdefault(mof.node.node_id, 0.0)
            by_node[mof.node.node_id] += mof.partition(self.partition)
        return by_node
