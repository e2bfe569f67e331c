"""Analytics LogGing (ALG) — paper §III.

A light-weight daemon runs alongside each ReduceTask attempt and
periodically persists the analytics progress:

- **Shuffle/merge stage** (Fig. 6 left & middle columns): a temporary
  in-memory merger flushes in-memory segments to local disk so the
  shuffle progress is durable; the log records the fetched MOF ids and
  the paths of on-disk intermediate files. The log lives on the local
  file system, so it is only usable by a new attempt on the *same*
  node (transient task failure) — exactly the paper's design.
- **Reduce stage** (Fig. 6 right column): the log records the MPQ
  structure (per-file offsets, i.e. the processed fraction) and ALG
  asynchronously flushes the reduce output to HDFS with a configurable
  replication level (node / rack / cluster; Fig. 13 measures this
  cost). Because the log and flushed output are on HDFS, a *migrated*
  attempt on any node can resume from them.

No global coordination is needed: logs are entirely task-local state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import MB, Node
from repro.hdfs.hdfs import ReplicationLevel
from repro.mapreduce.reducetask import DiskSegment, ReduceAttempt, ReduceRecoveryState
from repro.mapreduce.tasks import Task
from repro.sim.core import Interrupt, SimulationError
from repro.sim.flows import FlowCancelled

__all__ = ["ALGConfig", "AnalyticsLogStore", "AnalyticsLogger", "LogRecord"]


@dataclass(frozen=True)
class ALGConfig:
    """Knobs of the logging daemon."""

    #: Seconds between logging ticks (the paper sweeps this in Fig. 12).
    frequency: float = 10.0
    #: Replication spread for reduce-stage logs/output (Fig. 13).
    level: ReplicationLevel = ReplicationLevel.RACK
    #: Size of one log record on disk (metadata is tiny).
    record_bytes: float = 1.0 * MB
    #: Pause charged to the on-disk merger while its file list is
    #: snapshotted (the paper pauses rather than waits for completion).
    merger_pause_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise SimulationError("logging frequency must be positive")
        if self.record_bytes < 0 or self.merger_pause_seconds < 0:
            raise SimulationError("record size / pause must be >= 0")


@dataclass
class LogRecord:
    """The newest analytics log for one ReduceTask (Fig. 6)."""

    task_id: int
    stage: str
    time: float
    node: Node
    #: Shuffle/merge-stage payload (local-disk log).
    fetched_map_ids: set[int] = field(default_factory=set)
    disk_segments: list[DiskSegment] = field(default_factory=list)
    #: Reduce-stage payload (HDFS log).
    reduce_fraction: float = 0.0
    on_hdfs: bool = False


class AnalyticsLogStore:
    """Where recovery looks up the newest log per ReduceTask.

    Local (shuffle/merge) records are only served when the requesting
    node is the record's node and the files survive; HDFS (reduce)
    records are always served — their availability is what the
    replicated write paid for.
    """

    def __init__(self) -> None:
        self._local: dict[int, LogRecord] = {}
        self._hdfs: dict[int, LogRecord] = {}

    def put(self, record: LogRecord) -> None:
        if record.on_hdfs:
            self._hdfs[record.task_id] = record
        else:
            self._local[record.task_id] = record

    def local_record(self, task: Task, node: Node) -> LogRecord | None:
        rec = self._local.get(task.task_id)
        if rec is None or rec.node is not node or not node.alive:
            return None
        if not all(seg.exists() for seg in rec.disk_segments):
            return None
        return rec

    def hdfs_record(self, task: Task) -> LogRecord | None:
        return self._hdfs.get(task.task_id)

    def recovery_state_for(self, task: Task, node: Node) -> ReduceRecoveryState | None:
        """Assemble the best restorable state for a new attempt on ``node``."""
        local = self.local_record(task, node)
        hdfs = self.hdfs_record(task)
        if local is None and hdfs is None:
            return None
        state = ReduceRecoveryState()
        if local is not None:
            state.fetched_map_ids = set(local.fetched_map_ids)
            state.disk_segments = list(local.disk_segments)
        if hdfs is not None:
            state.reduce_resume_fraction = hdfs.reduce_fraction
        return state

    def clear(self, task: Task) -> None:
        self._local.pop(task.task_id, None)
        self._hdfs.pop(task.task_id, None)


class AnalyticsLogger:
    """The per-attempt logging daemon."""

    def __init__(self, store: AnalyticsLogStore, config: ALGConfig | None = None) -> None:
        self.store = store
        self.config = config or ALGConfig()
        #: Count of completed ticks (exposed for tests/benchmarks).
        self.ticks = 0

    def attach(self, attempt: ReduceAttempt) -> None:
        """Spawn the daemon as a child of the attempt (dies with it)."""
        attempt._spawn(self._daemon(attempt), name=f"alg:{attempt.attempt_id}")

    # -- the daemon -------------------------------------------------------------
    def _daemon(self, attempt: ReduceAttempt):
        cfg = self.config
        sim = attempt.sim
        last_reduce_fraction = attempt.reduce_resume_fraction
        poll = min(cfg.frequency, 2.0)
        last_tick = sim.now
        last_stage = attempt.stage
        try:
            while attempt.stage != "done":
                yield sim.timeout(poll)
                stage = attempt.stage
                # Tick on the period — or immediately when the task
                # enters the reduce stage, so a log exists as soon as
                # durable reduce progress exists.
                due = (sim.now - last_tick) >= cfg.frequency
                entered_reduce = stage == "reduce" and last_stage != "reduce"
                last_stage = stage
                if not (due or entered_reduce):
                    continue
                last_tick = sim.now
                if stage in ("shuffle", "merge"):
                    yield from self._log_shuffle(attempt)
                elif stage == "reduce":
                    last_reduce_fraction = yield from self._log_reduce(
                        attempt, last_reduce_fraction)
                self.ticks += 1
                last_stage = attempt.stage
        except (Interrupt, FlowCancelled, SimulationError):
            return

    def _log_shuffle(self, attempt: ReduceAttempt):
        cfg = self.config
        # Temporary in-memory merger: make shuffled-but-in-memory bytes
        # durable. The more frequent the tick, the less there is to
        # flush — the Fig. 12 effect. The snapshot must be *quiescent*
        # (no bytes in memory or mid-flush), otherwise the record's
        # fetched-set would claim data the on-disk files don't hold.
        for _ in range(8):
            yield from attempt.flush_memory()
            while attempt._flushing_bytes > 1.0:
                yield attempt.sim.timeout(0.2)
            if attempt.mem_bytes < 1.0:
                break
        else:
            return  # shuffle too hot to quiesce; skip this tick
        # Capture the snapshot at the quiescent instant (no yields since
        # the check above), then pay the pause + record-write costs.
        record = LogRecord(
            task_id=attempt.task.task_id,
            stage=attempt.stage,
            time=attempt.sim.now,
            node=attempt.node,
            fetched_map_ids=set(attempt.fetched),
            disk_segments=list(attempt.disk_segments),
        )
        yield attempt.sim.timeout(cfg.merger_pause_seconds)
        if cfg.record_bytes > 0:
            fl = attempt.cluster.disk_write(attempt.node, cfg.record_bytes,
                                            name=f"alg-rec:{attempt.attempt_id}")
            yield fl.done
        self.store.put(record)

    def _log_reduce(self, attempt: ReduceAttempt, last_fraction: float):
        cfg = self.config
        cluster = attempt.cluster
        node = attempt.node
        fraction = attempt.reduce_progress_fraction
        # The reduce *output* is already streaming through an HDFS
        # pipeline placed at the ALG replication level (the policy sets
        # it on the attempt), so the hflush at this tick only has to
        # persist the MPQ-offset record — locally and at one replica.
        waits = []
        if cfg.record_bytes > 0:
            # The local hflush and its replica copy start together:
            # batch them into one scheduler update.
            with cluster.flows.batch():
                waits.append(cluster.disk_write(node, cfg.record_bytes,
                                                name=f"alg-hrec:{attempt.attempt_id}").done)
                if cfg.level is not ReplicationLevel.NODE:
                    target = self._replica_target(attempt, cfg.level)
                    if target is not None:
                        waits.append(cluster.net_transfer(
                            node, target, cfg.record_bytes,
                            name=f"alg-rec-repl:{attempt.attempt_id}",
                            read_src_disk=False, write_dst_disk=True,
                        ).done)
        for w in waits:
            yield w
        self.store.put(LogRecord(
            task_id=attempt.task.task_id,
            stage="reduce",
            time=attempt.sim.now,
            node=node,
            reduce_fraction=fraction,
            on_hdfs=True,
        ))
        return fraction

    def _replica_target(self, attempt: ReduceAttempt, level: ReplicationLevel) -> Node | None:
        node = attempt.node
        hdfs = attempt.am.hdfs
        if level is ReplicationLevel.RACK:
            pool = [n for n in hdfs.datanodes
                    if n.reachable and n is not node and n.rack is node.rack]
        else:
            pool = [n for n in hdfs.datanodes
                    if n.reachable and n.rack is not node.rack]
            if not pool:
                pool = [n for n in hdfs.datanodes if n.reachable and n is not node]
        if not pool:
            return None
        return pool[int(attempt.cluster.rng.integers(len(pool)))]
