"""Workload descriptions driving the MapReduce cost model."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.node import GB
from repro.sim.core import SimulationError

__all__ = ["BENCHMARKS", "Workload", "secondarysort", "terasort", "wordcount"]


@dataclass(frozen=True)
class Workload:
    """Resource shape of one MapReduce program.

    CPU costs are seconds per MB of data through the respective
    function; selectivities are output-bytes per input-byte. Together
    with the cluster's device bandwidths they determine whether each
    phase is disk-, network- or CPU-bound.
    """

    name: str
    input_size: float
    num_reducers: int
    #: MOF bytes produced per input byte (combiner folded in).
    map_selectivity: float
    #: Seconds of map CPU per MB of input.
    map_cpu_per_mb: float
    #: Seconds of reduce CPU per MB of reduce input.
    reduce_cpu_per_mb: float
    #: HDFS output bytes per reduce-input byte.
    reduce_selectivity: float
    #: Seconds of CPU per MB merged (comparisons + (de)serialisation).
    merge_cpu_per_mb: float = 0.002
    #: Fraction of reduce CPU that is deserialisation (skippable when
    #: ALG logs let the recovering task resume a deserialised stream).
    deser_fraction: float = 0.3
    #: Relative spread of partition sizes across reducers (0 = uniform).
    partition_skew: float = 0.05

    def __post_init__(self) -> None:
        if self.input_size <= 0:
            raise SimulationError("input_size must be positive")
        if self.num_reducers < 1:
            raise SimulationError("need at least one reducer")
        for attr in ("map_selectivity", "map_cpu_per_mb", "reduce_cpu_per_mb",
                     "reduce_selectivity", "merge_cpu_per_mb"):
            if getattr(self, attr) < 0:
                raise SimulationError(f"{attr} must be >= 0")
        if not 0 <= self.deser_fraction <= 1:
            raise SimulationError("deser_fraction must be in [0, 1]")

    # -- derived quantities --------------------------------------------------
    @property
    def shuffle_bytes(self) -> float:
        """Total intermediate bytes crossing from maps to reduces."""
        return self.input_size * self.map_selectivity

    def partition_weights(self, rng: np.random.Generator) -> np.ndarray:
        """Per-reducer share of each MOF (sums to 1)."""
        if self.partition_skew <= 0:
            return np.full(self.num_reducers, 1.0 / self.num_reducers)
        w = rng.lognormal(mean=0.0, sigma=self.partition_skew, size=self.num_reducers)
        return w / w.sum()

    def with_reducers(self, num_reducers: int) -> "Workload":
        return replace(self, num_reducers=num_reducers)


def terasort(input_gb: float = 100.0, num_reducers: int = 20) -> Workload:
    """Identity sort: all input is shuffled and all of it is written back."""
    return Workload(
        name="terasort",
        input_size=input_gb * GB,
        num_reducers=num_reducers,
        map_selectivity=1.0,
        map_cpu_per_mb=0.05,
        reduce_cpu_per_mb=0.006,
        reduce_selectivity=1.0,
        merge_cpu_per_mb=0.004,
        deser_fraction=0.35,
    )


def wordcount(input_gb: float = 10.0, num_reducers: int = 1) -> Workload:
    """Tokenise-and-count: the combiner shrinks map output ~20x, and the
    paper runs it with a single long-running reducer (Figs. 3 & 10)."""
    return Workload(
        name="wordcount",
        input_size=input_gb * GB,
        num_reducers=num_reducers,
        map_selectivity=0.30,
        map_cpu_per_mb=0.15,
        reduce_cpu_per_mb=0.04,
        reduce_selectivity=0.30,
        merge_cpu_per_mb=0.005,
        deser_fraction=0.25,
    )


def secondarysort(input_gb: float = 10.0, num_reducers: int = 10) -> Workload:
    """Composite-key sort whose reduce function dominates runtime."""
    return Workload(
        name="secondarysort",
        input_size=input_gb * GB,
        num_reducers=num_reducers,
        map_selectivity=1.0,
        map_cpu_per_mb=0.02,
        reduce_cpu_per_mb=0.12,
        reduce_selectivity=0.5,
        merge_cpu_per_mb=0.004,
        deser_fraction=0.55,
    )


#: The paper's benchmark suite with its §V input sizes.
BENCHMARKS = {
    "terasort": terasort,
    "wordcount": wordcount,
    "secondarysort": secondarysort,
}
