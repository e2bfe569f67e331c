"""Slotted numpy column storage for the columnar flow scheduler.

:class:`ColumnStore` is a generic slotted struct-of-arrays with
amortized-doubling growth and LIFO free-slot reuse: one preallocated
numpy array per field, one slot per entity, so a vectorized pass reads
a whole population as array slices. :class:`FlowColumns` specialises it
for :class:`~repro.sim.flows_columnar.ColumnarFlowScheduler`, which
keeps each admitted flow's ``remaining``/``rate`` and its route here
and runs the max-min refill as array passes over them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.sim.core import SimulationError

__all__ = ["ColumnStore", "FlowColumns"]


class ColumnStore:
    """Slotted struct-of-arrays storage.

    ``schema`` maps field name -> numpy dtype string. Every allocated
    slot owns one cell of every column. Capacity grows by amortized
    doubling; freed slots are reused LIFO, so a free immediately
    followed by an alloc returns the *same* slot.

    Vectorized readers must slice columns to ``[:store.size]`` (the
    high-water mark) and mask with :attr:`used`: cells past the mark
    are uninitialised, cells of freed slots are stale until realloc.
    ``alloc`` zero-fills every field it is not given a value for, so a
    reused slot never leaks its previous occupant's state.
    """

    __slots__ = ("_cols", "used", "size", "_free")

    def __init__(self, schema: dict[str, str], capacity: int = 8) -> None:
        if not schema:
            raise SimulationError("ColumnStore needs at least one field")
        cap = max(int(capacity), 1)
        self._cols = {name: np.zeros(cap, dtype=dt) for name, dt in schema.items()}
        #: Per-slot liveness mask (True between alloc and free).
        self.used = np.zeros(cap, dtype=bool)
        #: High-water mark: slots >= size have never been allocated.
        self.size = 0
        self._free: list[int] = []

    def __len__(self) -> int:
        """Number of live (allocated, unfreed) slots."""
        return self.size - len(self._free)

    @property
    def capacity(self) -> int:
        return len(self.used)

    def col(self, name: str) -> np.ndarray:
        """The full backing array for ``name``; slice to ``[:size]``."""
        return self._cols[name]

    def alloc(self, **values: Any) -> int:
        """Claim a slot, zero-fill it, apply ``values``; return it."""
        unknown = [k for k in values if k not in self._cols]
        if unknown:
            raise SimulationError(f"unknown column(s): {', '.join(unknown)}")
        if self._free:
            slot = self._free.pop()
        else:
            slot = self.size
            if slot >= self.capacity:
                self._grow()
            self.size += 1
        for name, arr in self._cols.items():
            arr[slot] = values[name] if name in values else 0
        self.used[slot] = True
        return slot

    def free(self, slot: int) -> None:
        """Release a slot for LIFO reuse. Stale column values remain
        readable until the slot is reallocated."""
        if not (0 <= slot < self.size) or not self.used[slot]:
            raise SimulationError(f"free of unallocated slot {slot}")
        self.used[slot] = False
        self._free.append(slot)

    def _grow(self) -> None:
        new_cap = max(self.capacity * 2, 8)
        for name, arr in self._cols.items():
            grown = np.zeros(new_cap, dtype=arr.dtype)
            grown[: len(arr)] = arr
            self._cols[name] = grown
        grown_used = np.zeros(new_cap, dtype=bool)
        grown_used[: len(self.used)] = self.used
        self.used = grown_used

    # -- scalar access ----------------------------------------------------
    def get(self, slot: int, name: str) -> Any:
        """One cell as a plain python scalar (``.item()``), so values
        that flow onward into traces/JSON keep native types."""
        return self._cols[name][slot].item()


class FlowColumns(ColumnStore):
    """Per-flow columns for the columnar flow scheduler.

    One slot per *admitted* flow (size-0 flows complete before
    admission and never get a slot). The scheduler treats these cells
    as the authoritative ``remaining``/``rate`` while the flow is
    attached; the owning :class:`~repro.sim.flows.Flow` instance
    attributes are written back at detach so waiters and tests see the
    familiar object state after completion/cancellation.

    Besides the scalar schema there is a synced 2D ``rids`` matrix
    (slot x max-degree) holding the dense resource ids each flow is
    routed through, padded with ``-1`` — the edge list the vectorized
    progressive filling consumes without touching flow objects.
    """

    SCHEMA = {
        "remaining": "f8",  # bytes left at the last rate change
        "rate": "f8",       # current max-min allocated rate (B/s)
        "size": "f8",       # total bytes (constant per flow)
        "threshold": "f8",  # Flow._threshold: complete at or below it
        "fid": "i8",        # admission-ordered flow id (sort key)
        "deg": "i4",        # number of valid entries in rids[slot]
    }

    __slots__ = ("rids",)

    def __init__(self, capacity: int = 64, max_degree: int = 6) -> None:
        super().__init__(dict(self.SCHEMA), capacity)
        self.rids = np.full((self.capacity, max(int(max_degree), 1)), -1, dtype="i8")

    def _grow(self) -> None:
        super()._grow()
        grown = np.full((self.capacity, self.rids.shape[1]), -1, dtype="i8")
        grown[: len(self.rids)] = self.rids
        self.rids = grown

    def ensure_degree(self, degree: int) -> None:
        """Widen the ``rids`` matrix to hold ``degree`` resources."""
        if degree > self.rids.shape[1]:
            width = max(degree, self.rids.shape[1] * 2)
            grown = np.full((len(self.rids), width), -1, dtype="i8")
            grown[:, : self.rids.shape[1]] = self.rids
            self.rids = grown
