"""The MapReduce execution framework (Hadoop YARN MRv2 semantics).

This package implements the machinery the paper studies and patches:

- :mod:`~repro.mapreduce.config` — JobConf with Table I parameters and
  the shuffle/fetch-failure knobs.
- :mod:`~repro.mapreduce.mof` — Map Output Files and their registry.
- :mod:`~repro.mapreduce.maptask` / :mod:`~repro.mapreduce.reducetask`
  — task attempt processes (split read -> map -> sort/spill; shuffle ->
  merge -> reduce with Hadoop's fetch retry/backoff and
  fetch-failure-driven task suicide).
- :mod:`~repro.mapreduce.appmaster` — the MRAppMaster: container
  scheduling, attempt bookkeeping, fetch-failure accounting, and a
  pluggable :class:`~repro.mapreduce.recovery.RecoveryPolicy` (stock
  YARN task re-execution here; the paper's ALM policy in
  :mod:`repro.alm`).
- :mod:`~repro.mapreduce.job` — one job (AM, sampler, result) wired
  onto a :mod:`~repro.mapreduce.multijob` shared cluster, private by
  default.
"""

from repro.mapreduce.config import JobConf
from repro.mapreduce.job import JobResult, MapReduceRuntime, run_job
from repro.mapreduce.mof import MapOutput, MOFRegistry
from repro.mapreduce.multijob import SharedCluster
from repro.mapreduce.recovery import RecoveryPolicy, YarnRecoveryPolicy
from repro.mapreduce.speculation import SpeculationConfig, Speculator
from repro.mapreduce.tasks import Task, TaskAttempt, TaskFailed, TaskState, TaskType

__all__ = [
    "JobConf",
    "JobResult",
    "MapOutput",
    "MOFRegistry",
    "MapReduceRuntime",
    "RecoveryPolicy",
    "SharedCluster",
    "SpeculationConfig",
    "Speculator",
    "Task",
    "TaskAttempt",
    "TaskFailed",
    "TaskState",
    "TaskType",
    "YarnRecoveryPolicy",
    "run_job",
]
