"""Multi-tenant simulation: several MapReduce jobs on one YARN cluster.

Real YARN is shared infrastructure — the paper's motivation cites
production traces (Kavulya et al.) where failures delay *workloads*,
not single jobs. :class:`SharedCluster` wires one simulator, cluster,
HDFS and ResourceManager, and lets you submit any number of jobs (each
with its own AM, recovery policy and faults) that compete for
containers; a failure injected into one job can perturb its neighbours
through the shared nodes, disks and network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import Cluster, ClusterSpec
from repro.hdfs.hdfs import Hdfs, HdfsConfig
from repro.mapreduce.appmaster import MRAppMaster
from repro.mapreduce.config import JobConf
from repro.mapreduce.job import JobResult
from repro.mapreduce.recovery import RecoveryPolicy, YarnRecoveryPolicy
from repro.metrics.trace import ProgressSampler, Trace
from repro.sim.core import SimulationError, Simulator
from repro.workloads import Workload
from repro.yarn.rm import ResourceManager, YarnConfig

__all__ = ["JobHandle", "SharedCluster"]


@dataclass
class JobHandle:
    """One submitted job plus the view fault injectors need.

    Exposes the same attribute surface as
    :class:`~repro.mapreduce.job.MapReduceRuntime` (``sim``, ``cluster``,
    ``workers``, ``am``, ``trace``, ``policy``), so every injector in
    :mod:`repro.faults` but :class:`~repro.faults.AMFault` can be
    installed on a handle unchanged. A handle has no AM restart, so
    ``AMFault.install`` rejects it.
    """

    job_name: str
    workload: Workload
    sim: Simulator
    cluster: Cluster
    workers: list
    hdfs: Hdfs
    am: MRAppMaster
    trace: Trace
    policy: RecoveryPolicy
    submit_delay: float = 0.0
    result: JobResult | None = field(default=None, init=False)

    def install(self, fault) -> "JobHandle":
        fault.install(self)
        return self


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
            raise SimulationError("need at least 2 nodes")
        self.master = self.cluster.nodes[0]
        self.workers = self.cluster.nodes[1:]
        self.hdfs = Hdfs(self.sim, self.cluster, hdfs_config or HdfsConfig())
        self.hdfs.datanodes = list(self.workers)
        self.rm = ResourceManager(self.sim, self.cluster,
                                  yarn_config or YarnConfig(),
                                  worker_nodes=self.workers)
        self.cluster.rejoin_listeners.append(self.rm.register_node)
        self.sample_interval = sample_interval
        self.jobs: list[JobHandle] = []
        self._ran = False

    def submit(
        self,
        workload: Workload,
        policy: RecoveryPolicy | None = None,
        conf: JobConf | None = None,
        job_name: str | None = None,
        delay: float = 0.0,
        faults: tuple = (),
    ) -> JobHandle:
        """Register a job; it starts ``delay`` seconds into the run."""
        if self._ran:
            raise SimulationError("cluster already ran; build a new one")
        name = job_name or f"job{len(self.jobs)}-{workload.name}"
        input_path = f"input/{name}"
        self.hdfs.ingest(input_path, workload.input_size)
        trace = Trace(self.sim)
        pol = policy or YarnRecoveryPolicy()
        am = MRAppMaster(
            self.sim, self.cluster, self.rm, self.hdfs, workload,
            conf or JobConf(), pol, trace, input_path=input_path, job_name=name,
        )
        handle = JobHandle(
            job_name=name, workload=workload, sim=self.sim,
            cluster=self.cluster, workers=self.workers, hdfs=self.hdfs,
            am=am, trace=trace, policy=pol, submit_delay=delay,
        )
        sampler = ProgressSampler(self.sim, trace, interval=self.sample_interval)
        sampler.add_probe("reduce_progress", am.reduce_phase_progress)
        # A finished job stops sampling, as MapReduceRuntime.run does.
        am.done._add_callback(lambda _event: sampler.stop())
        for fault in faults:
            handle.install(fault)

        def starter(sim=self.sim):
            if delay > 0:
                yield sim.timeout(delay)
            sampler.start()
            am.start()

        self.sim.process(starter(), name=f"submit:{name}")
        self.jobs.append(handle)
        return handle

    def run_all(self) -> list[JobResult]:
        """Run the simulation until every submitted job ends."""
        if not self.jobs:
            raise SimulationError("no jobs submitted")
        self._ran = True
        all_done = self.sim.all_of([h.am.done for h in self.jobs])
        outcome = self.sim.run(until=all_done)
        if outcome is None:
            raise SimulationError("jobs did not complete")
        results = []
        for handle, oc in zip(self.jobs, outcome):
            counters = {
                "completed_maps": handle.am.completed_maps,
                "committed_reduces": handle.am.committed_reduces,
                "failed_map_attempts": handle.trace.count("attempt_failed", type="map"),
                "failed_reduce_attempts": handle.trace.count("attempt_failed", type="reduce"),
                "map_reruns": handle.trace.count("map_rerun"),
                "nodes_lost": handle.trace.count("node_lost"),
            }
            handle.result = JobResult(
                job_name=handle.job_name,
                workload=handle.workload.name,
                policy=handle.policy.name,
                success=oc["success"],
                start_time=oc["start_time"],
                end_time=oc["end_time"],
                trace=handle.trace,
                counters=counters,
            )
            results.append(handle.result)
        return results
