"""Unit tests for the kernel's FIFO store."""

import pytest

from repro.sim import Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered
        sim.run()
        assert got.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        out = []

        def consumer(sim, store):
            out.append((yield store.get()))

        def producer(sim, store):
            yield sim.timeout(4)
            store.put("item")

        sim.process(consumer(sim, store))
        sim.process(producer(sim, store))
        sim.run()
        assert out == ["item"]
        assert sim.now == 4

    def test_fifo_semantics(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        out = []

        def consumer(sim, store):
            for _ in range(3):
                out.append((yield store.get()))

        sim.process(consumer(sim, store))
        sim.run()
        assert out == [0, 1, 2]

    def test_len(self, sim):
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2
