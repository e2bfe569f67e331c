"""Queueing resources for the simulation kernel.

:class:`Store` is an unbounded FIFO of Python objects with blocking
``get``. It hands out plain :class:`Event` objects, so model processes
simply ``yield`` the result of ``get()``.
"""

from __future__ import annotations

from typing import Any

from repro.sim.core import Event, Simulator

__all__ = ["Store"]


class Store:
    """Unbounded FIFO store of arbitrary items with blocking ``get``."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: list[Any] = []
        self._getters: list[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        while self._getters:
            ev = self._getters.pop(0)
            if ev.triggered:
                continue
            ev.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.pop(0))
        else:
            self._getters.append(ev)
        return ev
