"""Synthetic job-mix generator modelled on production-trace statistics.

The paper motivates its work with Kavulya et al.'s analysis of a
production MapReduce cluster (CCGrid'10): the average job has 19
ReduceTasks, many have more than 145, and ~3% of jobs end failed or
cancelled with many more delayed. :class:`TraceMix` samples a fleet of
jobs with those coarse statistics so the motivating claim can be
measured end-to-end (see :mod:`repro.experiments.motivation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.core import SimulationError
from repro.workloads.workload import Workload, secondarysort, terasort, wordcount

__all__ = ["TraceMix"]

_FAMILIES = (terasort, wordcount, secondarysort)
#: Log-normal shape of the input sizes.
SIGMA_INPUT = 0.8


@dataclass(frozen=True)
class TraceMix:
    """Sampler for a fleet of jobs with trace-like shape statistics.

    - Input sizes: log-normal, median ``median_input_gb``.
    - Reducer counts: geometric-ish with mean ~``mean_reducers``
      (Kavulya: 19), capped at ``max_reducers`` (some jobs >145).
    - Job families: uniform over the paper's three benchmarks.
    - Inter-arrival times: exponential with mean ``mean_interarrival``.
    """

    num_jobs: int = 8
    median_input_gb: float = 8.0
    mean_reducers: float = 19.0
    max_reducers: int = 145
    mean_interarrival: float = 30.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise SimulationError("need at least one job")
        if self.median_input_gb <= 0 or self.mean_reducers < 1:
            raise SimulationError("bad mix parameters")

    def sample(self) -> list[tuple[Workload, float]]:
        """Return ``num_jobs`` (workload, submit_delay) pairs."""
        rng = np.random.default_rng(self.seed)
        jobs: list[tuple[Workload, float]] = []
        t = 0.0
        for i in range(self.num_jobs):
            family = _FAMILIES[int(rng.integers(len(_FAMILIES)))]
            size_gb = float(np.exp(rng.normal(np.log(self.median_input_gb), SIGMA_INPUT)))
            size_gb = max(0.5, min(size_gb, 200.0))
            reducers = 1 + int(rng.geometric(1.0 / self.mean_reducers))
            reducers = min(reducers, self.max_reducers)
            wl = family(size_gb).with_reducers(reducers)
            # Keep the family's identity in the name but make it unique.
            jobs.append((wl, t))
            t += float(rng.exponential(self.mean_interarrival))
        return jobs

    def scaled(self, scale: float) -> "TraceMix":
        from dataclasses import replace

        return replace(self, median_input_gb=self.median_input_gb * scale)
