"""One job on a simulated cluster: the AM, its sampler and its result.

:class:`MapReduceRuntime` is the object the experiment drivers and
fault injectors hold: it exposes every layer before the clock starts so
faults and probes can be attached, then :meth:`run` drives the
simulation to job completion and returns a :class:`JobResult`. The
platform it runs on (sim, cluster, HDFS, YARN) is a
:class:`~repro.mapreduce.multijob.SharedCluster`: a private one by
default, or one shared with other jobs via ``shared=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster import ClusterSpec
from repro.hdfs.hdfs import HdfsConfig
from repro.mapreduce.appmaster import MRAppMaster
from repro.mapreduce.config import JobConf
from repro.mapreduce.history import JobHistoryLog
from repro.mapreduce.multijob import SharedCluster, StallError
from repro.mapreduce.recovery import RecoveryPolicy, YarnRecoveryPolicy
from repro.metrics.trace import ProgressSampler, Trace
from repro.sim.core import SimulationError
from repro.workloads import Workload
from repro.yarn.rm import YarnConfig

__all__ = ["JobResult", "MapReduceRuntime", "StallError", "run_job"]


@dataclass
class JobResult:
    """Outcome and measurements of one simulated job."""

    job_name: str
    workload: str
    policy: str
    success: bool
    start_time: float
    end_time: float
    trace: Trace
    counters: dict[str, Any] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "ok" if self.success else "FAILED"
        return f"<JobResult {self.job_name} {status} {self.elapsed:.1f}s>"


class MapReduceRuntime:
    """One job, wired onto a cluster and ready to run.

    Without ``shared`` the runtime builds a private
    :class:`~repro.mapreduce.multijob.SharedCluster` from
    ``cluster_spec``/``yarn_config``/``hdfs_config``; with ``shared``
    it joins that cluster's jobs, and those three must be omitted. A
    ``record_progress`` job must be alone on its cluster.
    """

    def __init__(
        self,
        workload: Workload,
        conf: JobConf | None = None,
        cluster_spec: ClusterSpec | None = None,
        yarn_config: YarnConfig | None = None,
        hdfs_config: HdfsConfig | None = None,
        policy: RecoveryPolicy | None = None,
        job_name: str = "job",
        sample_interval: float = 1.0,
        speculation: bool | "SpeculationConfig" = False,
        record_progress: bool = False,
        shared: SharedCluster | None = None,
    ) -> None:
        if shared is None:
            shared = SharedCluster(cluster_spec, yarn_config, hdfs_config)
        elif (cluster_spec, yarn_config, hdfs_config) != (None, None, None):
            raise SimulationError(
                "MapReduceRuntime: a job on a shared cluster takes its "
                "cluster_spec, yarn_config and hdfs_config from that cluster")
        elif shared.jobs and (record_progress
                              or any(job.record_progress for job in shared.jobs)):
            # The flow_done hook is the cluster's, not the job's: it
            # would log every job's flows into one job's trace.
            raise SimulationError(
                "MapReduceRuntime: a record_progress job cannot share its "
                "cluster with another job")
        self.shared = shared
        self.sim = shared.sim
        self.cluster = shared.cluster
        self.master = shared.master
        self.workers = shared.workers
        self.hdfs = shared.hdfs
        self.rm = shared.rm
        self.conf = conf or JobConf()
        self.workload = workload
        self.policy = policy or YarnRecoveryPolicy()
        self.trace = Trace(self.sim)
        self.job_name = job_name
        self.record_progress = record_progress
        # Opt-in high-volume observations: a ``task_progress`` record
        # per running attempt per sampler tick and a ``flow_done``
        # record per completed flow. They only add trace records; the
        # job itself runs identically either way.
        if record_progress:
            self.cluster.flows.on_complete = self._log_flow_done

        self._input_path = input_path = f"input/{job_name}"
        self.hdfs.ingest(input_path, workload.input_size)
        #: Job-history event log — outlives any single AM incarnation.
        self.history = JobHistoryLog()
        self.am = MRAppMaster(
            self.sim, self.cluster, self.rm, self.hdfs, workload, self.conf,
            self.policy, self.trace, input_path=input_path, job_name=job_name,
            history=self.history,
        )
        #: Every AM this job has had, oldest first; ``self.am`` is the
        #: live one (re-bound by :meth:`_relaunch_am`).
        self.am_incarnations: list[MRAppMaster] = [self.am]
        #: Triggers once for the whole job, across AM restarts.
        self.job_done = self.sim.event()
        self._chain_am(self.am)
        self.speculator = None
        if speculation:
            from repro.mapreduce.speculation import SpeculationConfig

            spec_cfg = speculation if isinstance(speculation, SpeculationConfig) else None
            self.speculator = self.policy.make_speculator(self.am, spec_cfg)
        #: Reduce ``attempt_failed`` events so far, kept as they are
        #: logged; the trace is per job, so the count spans AM restarts.
        self.failed_reduce_attempts = 0
        self.trace.subscribe("attempt_failed", self._count_failed_attempt)
        self.sampler = ProgressSampler(self.sim, self.trace, interval=sample_interval)
        # Probes go through ``self.am`` late-bound so they track the
        # live incarnation across AM restarts.
        self.sampler.add_probe("reduce_progress",
                               lambda: self.am.reduce_phase_progress())
        self.sampler.add_probe("map_progress",
                               lambda: self.am.map_phase_progress())
        self.sampler.add_probe("failed_reduce_attempts",
                               lambda: self.failed_reduce_attempts)
        if record_progress:
            self.sampler.add_probe_block(self._task_progress_block)
        # A finished job stops sampling, while its neighbours run on.
        self.job_done._add_callback(lambda _event: self.sampler.stop())
        #: Start delay on a shared cluster (set by ``SharedCluster.submit``).
        self.submit_delay = 0.0
        #: Why the run loop declared this job wedged, if it did.
        self.stall_reason: str | None = None
        shared.add_job(self)

    def _count_failed_attempt(self, event) -> None:
        if event["type"] == "reduce":
            self.failed_reduce_attempts += 1

    def _task_progress_block(self):
        self.am.log_task_progress()
        return ()

    def _log_flow_done(self, flow) -> None:
        self.trace.log("flow_done", fid=flow.fid, size=flow.size)

    # -- AM failure & restart ------------------------------------------------
    def _chain_am(self, am: MRAppMaster) -> None:
        def forward(event) -> None:
            if not self.job_done.triggered:
                value = dict(event.value)
                value["start_time"] = self.am_incarnations[0].start_time
                self.job_done.succeed(value)

        am.done._add_callback(forward)

    def kill_am(self) -> bool:
        """Crash the live AM (the :class:`~repro.faults.inject.AMFault`
        hook). The RM relaunches it after ``conf.am_restart_delay``, up
        to ``conf.am_max_attempts`` incarnations. Returns ``False``
        when there is no live AM to kill."""
        am = self.am
        if am.dead or self.job_done.triggered:
            return False
        keep = self.conf.keep_containers_across_am_restart
        self.trace.log("am_crashed", am_attempt=am.am_attempt, keep_containers=keep)
        am.crash(keep_containers=keep)
        self.sim.process(self._relaunch_am(am), name=f"am-relaunch-{am.am_attempt + 1}")
        return True

    def _relaunch_am(self, old: MRAppMaster):
        yield self.sim.timeout(self.conf.am_restart_delay)
        if self.job_done.triggered:
            return
        attempt_no = old.am_attempt + 1
        if attempt_no >= self.conf.am_max_attempts:
            self.trace.log("am_attempts_exhausted", attempts=attempt_no)
            old.teardown_orphans("am-attempts-exhausted")
            self.job_done.succeed({
                "success": False,
                "start_time": self.am_incarnations[0].start_time,
                "end_time": self.sim.now,
            })
            return
        new_am = MRAppMaster(
            self.sim, self.cluster, self.rm, self.hdfs, self.workload, self.conf,
            self.policy, self.trace, input_path=self._input_path,
            job_name=self.job_name, history=self.history, am_attempt=attempt_no,
            partition_weights=old.partition_weights,
        )
        self.trace.log("am_restarted", am_attempt=attempt_no,
                       recovery=self.conf.am_recovery)
        self.am = new_am
        self.am_incarnations.append(new_am)
        if self.speculator is not None:
            self.speculator.am = new_am
        # Chain before recovery: replaying an orphaned commit can finish
        # the job synchronously inside recover().
        self._chain_am(new_am)
        new_am.recover(old, keep_containers=self.conf.keep_containers_across_am_restart)
        new_am.start()

    def start(self) -> None:
        """Start sampling and launch the AM (and speculator)."""
        self.sampler.start()
        if self.speculator is not None:
            self.speculator.start()
        self.am.start()

    def run(self, timeout: float = 100_000.0,
            stall_timeout: float | None = 2_000.0) -> JobResult:
        """Run the job's cluster to completion and return this job's
        result; see :meth:`SharedCluster.run_all
        <repro.mapreduce.multijob.SharedCluster.run_all>` for the hard
        ``timeout`` and the ``stall_timeout`` watchdog."""
        return self.shared.run_all(timeout, stall_timeout)[self.shared.jobs.index(self)]

    def result(self, outcome: dict[str, Any]) -> JobResult:
        """Summarise the job from its ``job_done`` outcome."""
        counters = {
            "completed_maps": self.am.completed_maps,
            "committed_reduces": self.am.committed_reduces,
            "failed_map_attempts": self.trace.count("attempt_failed", type="map"),
            "failed_reduce_attempts": self.failed_reduce_attempts,
            "map_reruns": self.trace.count("map_rerun"),
            "am_restarts": self.trace.count("am_restarted"),
            "nodes_lost": self.trace.count("node_lost"),
            "fetch_failure_reports": len(self.trace.of_kind("fetch_failure_report")),
            "map_locality": self.am.map_locality_counts(),
        }
        if self.stall_reason is not None:
            counters["stalled"] = True
            counters["stall_reason"] = self.stall_reason
        return JobResult(
            job_name=self.job_name,
            workload=self.workload.name,
            policy=self.policy.name,
            success=outcome["success"],
            start_time=outcome["start_time"],
            end_time=outcome["end_time"],
            trace=self.trace,
            counters=counters,
        )

    def activity_snapshot(self) -> tuple:
        """Everything that moves when the job is making progress. Flow
        byte counts make long single transfers register as activity even
        though they schedule no events while in flight."""
        flows = self.cluster.flows
        return (
            self.trace.total_events(),
            self.am.completed_maps,
            self.am.committed_reduces,
            round(self.am.map_phase_progress(), 9),
            round(self.am.reduce_phase_progress(), 9),
            flows.active_count,
            round(flows.total_transferred(), 3),
        )


def run_job(
    workload: Workload,
    policy: RecoveryPolicy | None = None,
    faults=None,
    **runtime_kwargs: Any,
) -> JobResult:
    """Convenience wrapper: build a runtime, install faults, run.

    ``faults`` is an iterable of objects with an ``install(runtime)``
    method (see :mod:`repro.faults`).
    """
    rt = MapReduceRuntime(workload, policy=policy, **runtime_kwargs)
    for fault in faults or ():
        fault.install(rt)
    return rt.run()
