"""Column storage: ColumnStore semantics, batched sampler blocks and
the bulk flow reads the activity watchdog uses."""

import pytest

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.metrics.trace import ProgressSampler, Trace
from repro.sim.columns import ColumnStore
from repro.sim.core import SimulationError, Simulator

pytestmark = pytest.mark.tier1


# ---------------------------------------------------------------------------
# ColumnStore
# ---------------------------------------------------------------------------
class TestColumnStore:
    SCHEMA = {"hb": "f8", "lost": "?", "cap": "i8"}

    def test_alloc_zero_fills_and_applies_values(self):
        store = ColumnStore(self.SCHEMA, capacity=2)
        slot = store.alloc(hb=3.5)
        assert store.get(slot, "hb") == 3.5
        assert store.get(slot, "lost") is False
        assert store.get(slot, "cap") == 0

    def test_get_returns_python_scalars(self):
        store = ColumnStore(self.SCHEMA)
        slot = store.alloc(hb=1.0, lost=True, cap=7)
        assert type(store.get(slot, "hb")) is float
        assert type(store.get(slot, "lost")) is bool
        assert type(store.get(slot, "cap")) is int

    def test_unknown_column_rejected_before_mutation(self):
        store = ColumnStore(self.SCHEMA, capacity=1)
        with pytest.raises(SimulationError, match="unknown column"):
            store.alloc(hb=1.0, bogus=2)
        # The failed alloc must not have claimed the slot.
        assert len(store) == 0
        assert store.size == 0

    def test_growth_preserves_existing_cells(self):
        store = ColumnStore(self.SCHEMA, capacity=2)
        slots = [store.alloc(cap=i) for i in range(10)]
        assert store.capacity >= 10
        assert [store.get(s, "cap") for s in slots] == list(range(10))

    def test_free_then_alloc_reuses_same_slot_lifo(self):
        store = ColumnStore(self.SCHEMA)
        a = store.alloc(cap=1)
        b = store.alloc(cap=2)
        store.free(a)
        assert store.alloc(cap=3) == a  # LIFO reuse
        assert store.get(b, "cap") == 2

    def test_reused_slot_is_zero_filled(self):
        store = ColumnStore(self.SCHEMA)
        slot = store.alloc(hb=9.0, lost=True, cap=42)
        store.free(slot)
        again = store.alloc()
        assert again == slot
        assert store.get(again, "hb") == 0.0
        assert store.get(again, "lost") is False
        assert store.get(again, "cap") == 0

    def test_double_free_rejected(self):
        store = ColumnStore(self.SCHEMA)
        slot = store.alloc()
        store.free(slot)
        with pytest.raises(SimulationError, match="unallocated"):
            store.free(slot)


# ---------------------------------------------------------------------------
# Sampler blocks, bulk flow reads, periodic profiling
# ---------------------------------------------------------------------------
def test_sampler_block_matches_individual_probes():
    def run(use_block: bool) -> dict:
        sim = Simulator()
        trace = Trace(sim)
        state = {"a": 0}
        sampler = ProgressSampler(sim, trace, interval=1.0)
        if use_block:
            sampler.add_probe_block(lambda: (("a", state["a"]), ("b", state["a"] * 2.0)))
        else:
            sampler.add_probe("a", lambda: state["a"])
            sampler.add_probe("b", lambda: state["a"] * 2.0)
        sampler.start()

        def bump():
            while True:
                yield sim.timeout(1.0)
                state["a"] += 1

        sim.process(bump(), name="bump")
        sim.run(until=10.0)
        return {"series": trace.series, "digest": trace.digest()}

    assert run(use_block=True) == run(use_block=False)


def test_total_transferred_matches_per_flow_sum():
    from repro.sim.flows import LinkResource

    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=4))
    shared = LinkResource("shared", 100.0)
    flows = [cluster.flows.transfer(1000.0 * (i + 1), [shared], f"f{i}")
             for i in range(5)]
    sim.run(until=3.0)
    sim.timeout(7.0)  # schedule something so now < next flow completion
    expected = sum(f.transferred for f in cluster.flows.active_flows)
    assert cluster.flows.total_transferred() == expected
    assert cluster.flows.active_count == len(cluster.flows.active_flows)
    assert any(f.transferred > 0 for f in flows)


def test_total_transferred_matches_on_reference_scheduler(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "reference")
    from repro.sim.flows import LinkResource

    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=4))
    shared = LinkResource("shared", 100.0)
    for i in range(3):
        cluster.flows.transfer(500.0 * (i + 1), [shared], f"f{i}")
    sim.run(until=2.0)
    expected = sum(f.transferred for f in cluster.flows.active_flows)
    assert cluster.flows.total_transferred() == expected
    assert cluster.flows.active_count == len(cluster.flows.active_flows)
