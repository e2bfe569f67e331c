"""The simulated platform, shared by every job that runs on it.

Real YARN is shared infrastructure — the paper's motivation cites
production traces (Kavulya et al.) where failures delay *workloads*,
not single jobs. :class:`SharedCluster` wires one simulator, cluster,
HDFS and ResourceManager; every job on it is a
:class:`~repro.mapreduce.job.MapReduceRuntime` (with its own AM,
recovery policy and faults) competing for containers, so a failure
injected into one job can perturb its neighbours through the shared
nodes, disks and network. A single-job runtime is the one-job case: it
builds a private cluster and runs it through the same
:meth:`SharedCluster.run_all` loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster import Cluster, ClusterSpec
from repro.hdfs.hdfs import Hdfs, HdfsConfig
from repro.mapreduce.config import JobConf
from repro.mapreduce.recovery import RecoveryPolicy
from repro.sim.core import SimulationError, Simulator
from repro.workloads import Workload
from repro.yarn.rm import ResourceManager, YarnConfig

if TYPE_CHECKING:
    from repro.mapreduce.job import JobResult, MapReduceRuntime

__all__ = ["SharedCluster", "StallError"]


class StallError(SimulationError):
    """The stall watchdog declared the simulation wedged: neither the
    event loop nor job progress moved for a full stall window."""


class SharedCluster:
    """One cluster, many jobs."""

    def __init__(
        self,
        cluster_spec: ClusterSpec | None = None,
        yarn_config: YarnConfig | None = None,
        hdfs_config: HdfsConfig | None = None,
        sample_interval: float = 2.0,
    ) -> None:
        self.sim = Simulator()
        self.cluster = Cluster(self.sim, cluster_spec or ClusterSpec())
        if len(self.cluster.nodes) < 2:
            raise SimulationError("need at least 2 nodes (RM/NN + 1 worker)")
        #: Node 0 is dedicated to the RM and NameNode (paper §V-A).
        self.master = self.cluster.nodes[0]
        self.workers = self.cluster.nodes[1:]
        self.hdfs = Hdfs(self.sim, self.cluster, hdfs_config or HdfsConfig())
        self.hdfs.datanodes = list(self.workers)
        self.rm = ResourceManager(self.sim, self.cluster,
                                  yarn_config or YarnConfig(),
                                  worker_nodes=self.workers)
        # Healed/restarted nodes re-register with the RM (fresh NM).
        self.cluster.rejoin_listeners.append(self.rm.register_node)
        self.sample_interval = sample_interval
        self.jobs: list[MapReduceRuntime] = []
        #: Delayed jobs whose start is still ahead of the clock.
        self._pending = 0
        self._ran = False

    def add_job(self, job: "MapReduceRuntime") -> None:
        """Register a runtime built with ``shared=self``."""
        if self._ran:
            raise SimulationError("cluster already ran; build a new one")
        self.jobs.append(job)

    def submit(
        self,
        workload: Workload,
        policy: RecoveryPolicy | None = None,
        conf: JobConf | None = None,
        job_name: str | None = None,
        delay: float = 0.0,
    ) -> "MapReduceRuntime":
        """Register a job; it starts ``delay`` seconds into the run."""
        from repro.mapreduce.job import MapReduceRuntime

        job = MapReduceRuntime(
            workload, conf=conf, policy=policy,
            job_name=job_name or f"job{len(self.jobs)}-{workload.name}",
            sample_interval=self.sample_interval, shared=self,
        )
        job.submit_delay = delay
        return job

    def run_all(self, timeout: float | None = 100_000.0,
                stall_timeout: float | None = 2_000.0) -> list[JobResult]:
        """Run the simulation until every job ends; one result per job.

        A watchdog guards the two ways a buggy schedule can hang the
        simulation: ``timeout`` is a hard ceiling on simulated time, and
        ``stall_timeout`` fails the run if *nothing observable* in any
        job (trace events, task counters, phase progress, flow bytes)
        changes for that long while no delayed job is still waiting to
        start — the event loop may still be ticking heartbeats, but the
        jobs are wedged. Then every unfinished job gets a failed
        :class:`~repro.mapreduce.job.JobResult` with
        ``counters["stalled"]`` set, and every finished job keeps its
        own result. ``stall_timeout=None`` disables the freeze check
        (the hard ceiling still applies).
        """
        if not self.jobs:
            raise SimulationError("no jobs submitted")
        self._ran = True
        for job in self.jobs:
            if job.submit_delay > 0:
                self._pending += 1
                self.sim.process(self._start_later(job), name=f"submit:{job.job_name}")
            else:
                job.start()
        all_done = self.sim.all_of([job.job_done for job in self.jobs])
        self.sim.process(self._watchdog(all_done, timeout, stall_timeout),
                         name="stall-watchdog")
        try:
            outcomes = self.sim.run(until=all_done)
        except StallError:
            outcomes = [job.job_done.value if job.job_done.triggered else {
                "success": False,
                "start_time": job.am_incarnations[0].start_time,
                "end_time": self.sim.now,
            } for job in self.jobs]
        if outcomes is None:
            raise SimulationError("jobs did not complete (ran out of events)")
        return [job.result(outcome) for job, outcome in zip(self.jobs, outcomes)]

    def _start_later(self, job: "MapReduceRuntime"):
        yield self.sim.timeout(job.submit_delay)
        self._pending -= 1
        job.start()

    # -- stall watchdog -----------------------------------------------------
    def _snapshot(self) -> tuple:
        return tuple(job.activity_snapshot() for job in self.jobs)

    def _watchdog(self, all_done, timeout: float | None, stall_timeout: float | None):
        check = max(1.0, min((stall_timeout or 2_000.0) / 4.0, 50.0))
        last = self._snapshot()
        last_change = self.sim.now
        while not all_done.triggered:
            yield self.sim.timeout(check)
            if all_done.triggered:
                return
            if timeout is not None and self.sim.now >= timeout:
                self._declare_stall(f"exceeded hard timeout of {timeout:g}s")
            snap = self._snapshot()
            if snap != last or self._pending:
                last = snap
                last_change = self.sim.now
            elif (stall_timeout is not None
                  and self.sim.now - last_change >= stall_timeout):
                self._declare_stall(
                    f"no observable progress for {self.sim.now - last_change:g}s")

    def _declare_stall(self, reason: str) -> None:
        stalled = [job for job in self.jobs if not job.job_done.triggered]
        for job in stalled:
            job.stall_reason = reason
            job.trace.log("stall_detected", reason=reason)
        raise StallError(f"{', '.join(job.job_name for job in stalled)}: {reason}")
