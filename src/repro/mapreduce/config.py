"""Job configuration: Table I parameters plus framework internals."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import MB
from repro.sim.core import SimulationError

__all__ = ["JobConf"]

# Hadoop 2.2 settings that no job, experiment or trial spec varies are
# module constants, not JobConf fields.
OUTPUT_REPLICATION = 2                  # dfs.replication for job output (Table I)
SHUFFLE_SINGLE_SEGMENT_FRACTION = 0.25  # mapreduce.reduce.shuffle.memory.limit.percent
SHUFFLE_MERGE_FRACTION = 0.66           # mapreduce.reduce.shuffle.merge.percent
FETCH_CONNECT_TIMEOUT = 3.0             # s lost per connect to an unreachable host
FETCH_RETRY_BASE_DELAY = 3.0            # s; fetch retry k waits base * 2^(k-1)
# ShuffleSchedulerImpl.checkReducerHealth(): a reducer is unhealthy once
# failures/(failures+done) reaches MAX_ALLOWED_FAILED_FETCH_ATTEMPT_PERCENT,
# and stall-based suicide needs done/total >= MIN_REQUIRED_PROGRESS_PERCENT.
MAX_ALLOWED_FAILED_FETCH_FRACTION = 0.5
MIN_REQUIRED_PROGRESS_FRACTION = 0.5
# Container request priorities, lower wins (RMContainerAllocator's
# PRIORITY_*): fast-fail/recovery maps > reduces > normal maps.
MAP_PRIORITY = 20.0
REDUCE_PRIORITY = 10.0
RECOVERY_MAP_PRIORITY = 2.0
RECOVERY_REDUCE_PRIORITY = 3.0
TASK_STARTUP_SECONDS = 1.0              # fixed per-task container/JVM startup cost


@dataclass(frozen=True)
class JobConf:
    """MapReduce job parameters.

    The first block mirrors Table I of the paper; the second block holds
    the Hadoop shuffle/fetch-failure machinery constants whose defaults
    are taken from Hadoop 2.2 (the paper's code base); the third holds
    task scheduling knobs.
    """

    # -- Table I ----------------------------------------------------------
    map_memory_mb: int = 1536          # mapreduce.map.java.opts
    reduce_memory_mb: int = 4096       # mapreduce.reduce.java.opts
    io_sort_factor: int = 100          # mapreduce.task.io.sort.factor

    # -- shuffle machinery ----------------------------------------------------
    #: Concurrent fetcher threads per ReduceTask (mapreduce.reduce.shuffle.parallelcopies).
    num_fetchers: int = 5
    #: Fraction of the reduce heap used as shuffle buffer.
    shuffle_buffer_fraction: float = 0.70
    #: Attempts against one host before declaring a fetch failure.
    fetch_retries_per_host: int = 4

    # -- fetch-failure accounting (the amplification engine) -----------------
    # Modelled on Hadoop's ShuffleSchedulerImpl.checkReducerHealth():
    # the reducer kills itself when cumulative fetch failures dominate
    # its progress, or when it has progressed far but then stalls.
    #: ... and no shuffle progress for at least this long (a floor over
    #: Hadoop's 0.5 * max-map-runtime term).
    reducer_stall_seconds: float = 45.0
    #: Delay before a fetcher revisits a host it just failed against.
    host_failure_penalty: float = 10.0
    #: The AM re-executes a completed map after this many fetch-failure
    #: reports against it.
    map_refetch_reports: int = 3

    # -- scheduling --------------------------------------------------------
    #: Launch ReduceTasks after this fraction of maps completed
    #: (mapreduce.job.reduce.slowstart.completedmaps).
    slowstart_completed_maps: float = 0.05
    #: Attempts per task before the job fails.
    max_attempts: int = 4
    #: The AM fails an attempt that has reported nothing for this long
    #: (mapreduce.task.timeout). This is the only recovery path for an
    #: attempt that dies inside a network partition shorter than the
    #: RM's liveness timeout: the node is never declared lost, so no
    #: node-lost rescheduling ever fires.
    task_timeout: float = 600.0

    # -- AM survivability (yarn.app.mapreduce.am.*) -----------------------
    #: AM incarnations before the RM gives the job up
    #: (mapreduce.am.max-attempts; YARN default 2).
    am_max_attempts: int = 2
    #: How a relaunched AM rebuilds state: ``"log"`` replays the
    #: job-history event log (completed maps whose MOFs survive are not
    #: re-executed); ``"rerun-all"`` starts from scratch — the ablation
    #: mirroring the paper's ALG-vs-scratch comparison one layer up.
    am_recovery: str = "log"
    #: Whether running attempts survive an AM crash as orphans to be
    #: re-adopted by the next incarnation
    #: (yarn.resourcemanager.work-preserving-recovery analogue).
    keep_containers_across_am_restart: bool = False
    #: RM relaunch latency after an AM crash (seconds).
    am_restart_delay: float = 5.0

    # -- cost-model details -----------------------------------------------------
    #: Map-side sort buffer (mapreduce.task.io.sort.mb); inputs larger
    #: than this incur an extra spill-merge read+write pass.
    io_sort_mb: float = 100.0 * MB

    def __post_init__(self) -> None:
        if self.map_memory_mb < 1 or self.reduce_memory_mb < 1:
            raise SimulationError("task memory must be positive")
        if self.io_sort_factor < 2:
            raise SimulationError("io_sort_factor must be >= 2")
        if self.num_fetchers < 1:
            raise SimulationError("need at least one fetcher")
        for frac in (self.shuffle_buffer_fraction, self.slowstart_completed_maps):
            if not 0 < frac <= 1:
                raise SimulationError(f"fraction {frac} out of (0, 1]")
        if self.max_attempts < 1:
            raise SimulationError("max_attempts must be >= 1")
        if self.task_timeout <= 0:
            raise SimulationError("task_timeout must be > 0")
        if self.fetch_retries_per_host < 1:
            raise SimulationError("fetch_retries_per_host must be >= 1")
        if self.am_max_attempts < 1:
            raise SimulationError("am_max_attempts must be >= 1")
        if self.am_recovery not in ("log", "rerun-all"):
            raise SimulationError("am_recovery must be 'log' or 'rerun-all'")
        if self.am_restart_delay < 0:
            raise SimulationError("am_restart_delay must be >= 0")

    @property
    def shuffle_buffer_bytes(self) -> float:
        return self.reduce_memory_mb * MB * self.shuffle_buffer_fraction

    @property
    def shuffle_merge_trigger_bytes(self) -> float:
        return self.shuffle_buffer_bytes * SHUFFLE_MERGE_FRACTION

    @property
    def shuffle_single_segment_max(self) -> float:
        return self.shuffle_buffer_bytes * SHUFFLE_SINGLE_SEGMENT_FRACTION
