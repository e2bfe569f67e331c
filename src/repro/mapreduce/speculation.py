"""Stock speculative execution (LATE-style), as in Hadoop/[24].

The paper's Algorithm 1 *speculatively* launches recovery ReduceTasks;
this module provides the ordinary speculation machinery those ideas
extend: watch running attempts, estimate completion from progress rate,
and duplicate the slowest task when it is projected to finish late.

Disabled by default (the paper's evaluation runs with stock settings
and injects failures rather than stragglers); enable via
``SpeculationConfig`` / ``Speculator.start`` or the ``speculation``
flag on :func:`repro.mapreduce.job.run_job`-built runtimes. The
straggler injector in :mod:`repro.faults.stragglers` pairs with this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.mapreduce.config import MAP_PRIORITY, REDUCE_PRIORITY
from repro.mapreduce.tasks import Task, TaskState, TaskType
from repro.sim.core import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.appmaster import MRAppMaster

__all__ = ["SpeculationConfig", "Speculator"]

#: Progress floor used when estimating a stalled attempt's rate.
MIN_PROGRESS = 0.02


@dataclass(frozen=True)
class SpeculationConfig:
    """LATE-style speculation knobs."""

    #: Scan period.
    interval: float = 5.0
    #: A task is speculatable when its estimated finish time exceeds the
    #: mean estimate of its peers by this factor.
    slowness_threshold: float = 1.35
    #: Never speculate before the attempt has run this long.
    min_runtime: float = 10.0
    #: Cap on concurrently running speculative duplicates per job.
    max_speculative: int = 4

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.slowness_threshold <= 1.0:
            raise SimulationError("bad speculation parameters")
        if self.max_speculative < 1:
            raise SimulationError("max_speculative must be >= 1")


class Speculator:
    """Background scanner duplicating projected stragglers."""

    def __init__(self, am: "MRAppMaster", config: SpeculationConfig | None = None) -> None:
        self.am = am
        self.config = config or SpeculationConfig()
        #: Task ids already speculated (one duplicate per task).
        self.speculated: set[tuple[TaskType, int]] = set()
        self._running = False

    def start(self) -> None:
        if not self._running:
            self._running = True
            self.am.sim.process(self._loop(), name="speculator")

    @property
    def launched(self) -> int:
        return len(self.speculated)

    # -- internals --------------------------------------------------------
    def _loop(self):
        while not self.am._finished:
            yield self.am.sim.timeout(self.config.interval)
            self._scan(self.am.map_tasks, TaskType.MAP)
            self._scan(self.am.reduce_tasks, TaskType.REDUCE)

    def _scan(self, tasks: list[Task], task_type: TaskType) -> None:
        cfg = self.config
        estimates = self._estimates(tasks, self.am.sim.now)
        completed = [
            t.attempts[-1].elapsed for t in tasks
            if t.state is TaskState.SUCCEEDED and t.attempts
        ]
        picked = self._cutoff(estimates, completed)
        if picked is None:
            return
        cutoff, mean_est = picked
        active_dups = sum(
            1 for t in tasks
            if (task_type, t.task_id) in self.speculated and len(t.running_attempts()) > 1
        )
        for est, task in sorted(estimates, key=lambda e: e[0], reverse=True):
            if active_dups >= cfg.max_speculative:
                break
            key = (task_type, task.task_id)
            if key in self.speculated:
                continue
            if est > cutoff:
                self.speculated.add(key)
                active_dups += 1
                self.am.trace.log("speculation", task=task.name,
                                  estimate=est, mean=mean_est)
                prio = MAP_PRIORITY if task_type is TaskType.MAP else REDUCE_PRIORITY
                exclude = [task.running_attempts()[0].node]
                self.am.schedule_task(task, priority=prio, exclude=exclude,
                                      attempt_kwargs={"speculative": True})

    def _cutoff(self, estimates: list[tuple[float, Task]],
                completed: list[float]) -> tuple[float, float] | None:
        """The speculation threshold for this scan: ``(cutoff,
        benchmark)``, or None when the sample is too small to judge.

        The benchmark prefers completed peers' durations when available
        (so the last stragglers aren't compared only against each
        other), else the running estimates. Statistical straggler
        detectors override this (the scan loop and trace records are
        shared); ``benchmark`` is what the ``speculation`` trace event
        reports as ``mean``.
        """
        cfg = self.config
        if len(completed) >= 3:
            mean_est = sum(completed) / len(completed)
        elif len(estimates) >= 2:
            mean_est = sum(e for e, _ in estimates) / len(estimates)
        else:
            return None
        return cfg.slowness_threshold * mean_est, mean_est

    # -- completion-estimate scan --------------------------------------------
    def _estimates(self, tasks: list[Task], now: float) -> list[tuple[float, Task]]:
        cfg = self.config
        estimates: list[tuple[float, Task]] = []
        for task in tasks:
            if task.state is not TaskState.RUNNING:
                continue
            attempts = task.running_attempts()
            if len(attempts) != 1:
                continue  # already duplicated (or being rescheduled)
            a = attempts[0]
            runtime = now - a.start_time
            if runtime < cfg.min_runtime:
                continue
            # A stalled attempt (no progress at all) is the worst
            # straggler; clamp the rate rather than excluding it.
            rate = max(a.progress, MIN_PROGRESS) / runtime
            estimates.append((runtime + (1.0 - a.progress) / rate, task))
        return estimates
