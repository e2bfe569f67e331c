"""Unit tests for workload models."""

import numpy as np
import pytest

from repro.cluster.node import GB
from repro.sim.core import SimulationError
from repro.workloads import BENCHMARKS, secondarysort, terasort, wordcount
from repro.workloads.workload import Workload


class TestBenchmarkDefinitions:
    def test_terasort_is_identity(self):
        wl = terasort(100.0)
        assert wl.map_selectivity == 1.0
        assert wl.reduce_selectivity == 1.0
        assert wl.input_size == 100 * GB
        assert wl.num_reducers == 20

    def test_wordcount_combines_and_has_one_reducer(self):
        wl = wordcount(10.0)
        assert wl.map_selectivity < 0.5
        assert wl.num_reducers == 1

    def test_secondarysort_is_reduce_cpu_heavy(self):
        wl = secondarysort(10.0)
        assert wl.reduce_cpu_per_mb > terasort().reduce_cpu_per_mb
        assert wl.reduce_cpu_per_mb > wordcount().reduce_cpu_per_mb

    def test_benchmark_registry(self):
        assert set(BENCHMARKS) == {"terasort", "wordcount", "secondarysort"}
        for factory in BENCHMARKS.values():
            assert isinstance(factory(1.0), Workload)

    def test_shuffle_bytes(self):
        wl = terasort(10.0)
        assert wl.shuffle_bytes == pytest.approx(10 * GB)
        assert wordcount(10.0).shuffle_bytes < 10 * GB


class TestPartitionWeights:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for wl in (terasort(1.0), wordcount(1.0), secondarysort(1.0)):
            w = wl.partition_weights(rng)
            assert w.shape == (wl.num_reducers,)
            assert w.sum() == pytest.approx(1.0)
            assert (w > 0).all()

    def test_zero_skew_is_uniform(self):
        rng = np.random.default_rng(0)
        wl = terasort(1.0).with_reducers(8)
        wl = Workload(**{**wl.__dict__, "partition_skew": 0.0})
        w = wl.partition_weights(rng)
        assert np.allclose(w, 1 / 8)


class TestDerivedWorkloads:
    def test_with_reducers(self):
        assert terasort(10.0).with_reducers(7).num_reducers == 7


class TestValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(SimulationError):
            terasort(0.0)
        with pytest.raises(SimulationError):
            terasort(1.0).with_reducers(0)
        with pytest.raises(SimulationError):
            Workload("x", 1.0, 1, -1.0, 0, 0, 0)
        with pytest.raises(SimulationError):
            Workload("x", 1.0, 1, 1.0, 0, 0, 0, deser_fraction=2.0)
