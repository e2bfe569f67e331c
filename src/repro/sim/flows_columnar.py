"""Columnar max-min flow scheduler: vectorized progressive filling.

:class:`ColumnarFlowScheduler` keeps per-flow ``remaining``/``rate``
state in :class:`~repro.sim.columns.FlowColumns` instead of on the
``Flow`` objects, so the per-instant hot loops — progress advance,
completion scan, timer horizon, and the progressive-filling refill
itself — are single numpy passes over the flow population rather than
per-object python loops. At shuffle-wave scale (thousands of concurrent
flows per instant) this is where the model spends its time once the
kernel and node plane are columnar.

Bit-identity contract (the same one the incremental scheduler pins
against the eager reference, DESIGN.md §13):

- **Same arithmetic, elementwise.** Every vectorized expression is the
  exact float expression the scalar loops evaluate per flow
  (`max(0.0, rem - rate*dt)`, `max(cap, 0.0)/cnt`, `rem/rate`), and
  IEEE float ops are elementwise-deterministic, so columns hold the
  same bits the object attributes would.
- **Same fill order.** Flows enter the fill in fid (admission) order,
  resources in first-encounter order over that flow order, and each
  round's bottleneck is ``np.argmin`` — the *first* strict minimum,
  exactly the scalar linear scan's tie-break. Freeze-round capacity
  subtractions are applied in the scalar's flow-major edge order.
- **Conservative components.** Resource connectivity is tracked with a
  union-find that only ever merges (never splits), so a refill may
  cover a *superset* of the true dirty component. Max-min filling
  decomposes across connected components — a merged fill executes each
  true component's round sequence unchanged, interleaved — so the
  extra coverage re-derives identical rates (§13 gives the argument).
  Only the ``filling_rounds``/``recomputed_flows`` counters can differ
  from the incremental scheduler; no rate, completion time, or trace
  byte does.
- **Same completion order.** The completion scan yields slots in
  arbitrary (LIFO-reuse) slot order, so finishers are sorted by fid
  before bookkeeping/succeed — the admission order the scalar
  scheduler's insertion-ordered dict walks naturally.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.columns import FlowColumns
from repro.sim.core import Simulator
from repro.sim.flows import _EPS, Flow, FlowScheduler, LinkResource

__all__ = ["ColumnarFlowScheduler"]


class ColumnarFlowScheduler(FlowScheduler):
    """Incremental scheduler with column-resident flow state."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim)
        self.columns = FlowColumns()
        #: dense rid -> LinkResource, validates stale ``_rid`` tags.
        self._rid_res: list[LinkResource] = []
        self._next_rid = 0
        #: dense rid -> current capacity (refreshed on set_capacity).
        self._rid_cap = np.zeros(64)
        #: union-find parent over rids; merges only, never splits.
        self._uf_parent = np.zeros(64, dtype="i8")

    # -- resource registry / components ------------------------------------
    def _register_rid(self, r: LinkResource) -> int:
        rid = r._rid
        if 0 <= rid < self._next_rid and self._rid_res[rid] is r:
            return rid
        rid = self._next_rid
        self._next_rid += 1
        r._rid = rid
        self._rid_res.append(r)
        if rid >= len(self._rid_cap):
            new_cap = max(len(self._rid_cap) * 2, rid + 1)
            grown = np.zeros(new_cap)
            grown[: len(self._rid_cap)] = self._rid_cap
            self._rid_cap = grown
            grown_p = np.zeros(new_cap, dtype="i8")
            grown_p[: len(self._uf_parent)] = self._uf_parent
            self._uf_parent = grown_p
        self._rid_cap[rid] = r.capacity
        self._uf_parent[rid] = rid
        return rid

    def _find(self, x: int) -> int:
        parent = self._uf_parent
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    def _resolve_roots(self, comp: np.ndarray) -> np.ndarray:
        """Vectorized find for an array of component labels, with
        write-back path compression."""
        parent = self._uf_parent
        cur = parent[comp]
        while True:
            nxt = parent[cur]
            if np.array_equal(nxt, cur):
                break
            cur = nxt
        parent[comp] = cur
        return cur

    def _attach(self, flow: Flow) -> None:
        cols = self.columns
        rids = [self._register_rid(r) for r in flow.resources]
        root = self._find(rids[0])
        for rid in rids[1:]:
            r2 = self._find(rid)
            if r2 != root:
                self._uf_parent[r2] = root
        deg = len(rids)
        cols.ensure_degree(deg)
        slot = cols.alloc(remaining=flow.remaining, rate=0.0, size=flow.size,
                          fid=flow.fid, comp=root, deg=deg)
        row = cols.rids[slot]
        row[:deg] = rids
        row[deg:] = -1
        flow._cols = cols
        flow._slot = slot

    # -- public API ---------------------------------------------------------
    def transfer(self, size, resources, name=None, rate_cap=None):
        flow = super().transfer(size, resources, name=name, rate_cap=rate_cap)
        if flow._active:
            self._attach(flow)
        return flow

    def total_transferred(self) -> float:
        cols = self.columns
        n = cols.size
        if n == 0 or not self._active:
            return 0.0
        slots = np.flatnonzero(cols.used[:n])
        order = np.argsort(cols.col("fid")[slots])
        slots = slots[order]
        rem = cols.col("remaining")[slots]
        size = cols.col("size")[slots]
        dt = self.sim.now - self._last_update
        if dt > 0:
            rate = cols.col("rate")[slots]
            rem = np.where(rate > 0, np.maximum(rem - rate * dt, 0.0), rem)
        # Accumulate sequentially in admission order: np.sum is pairwise
        # and would round differently from the scalar schedulers' loop.
        total = 0.0
        for moved in (size - rem).tolist():
            total += moved
        return total

    # -- internals ----------------------------------------------------------
    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        cols = self.columns
        n = cols.size
        if n:
            rem = cols.col("remaining")
            rate = cols.col("rate")
            # Stale (freed) cells are advanced too — harmless, they are
            # never read without the used mask and realloc zero-fills.
            np.maximum(rem[:n] - rate[:n] * dt, 0.0, out=rem[:n])
            self.stats["column_ops"] += 1

    def _remove(self, flow: Flow) -> None:
        cols = flow._cols
        if cols is not None:
            slot = flow._slot
            flow.remaining = float(cols.col("remaining")[slot])
            flow._rate = float(cols.col("rate")[slot])
            flow._cols = None
            flow._slot = -1
            cols.free(slot)
        super()._remove(flow)

    def _reshare(self, resource: LinkResource | None = None) -> None:
        if resource is not None:
            rid = resource._rid
            if 0 <= rid < self._next_rid and self._rid_res[rid] is resource:
                self._rid_cap[rid] = resource.capacity
        super()._reshare(resource)

    def _complete_finished(self, at_timer: bool = False) -> None:
        cols = self.columns
        n = cols.size
        if n == 0:
            return
        rem = cols.col("remaining")[:n]
        size = cols.col("size")[:n]
        done = rem <= _EPS * np.maximum(size, 1.0)
        if at_timer:
            # See FlowScheduler._complete_finished.
            rate = cols.col("rate")[:n]
            moving = rate > 0
            horizon = np.divide(rem, rate, out=np.ones(n), where=moving)
            now = self.sim.now
            done |= moving & (now + horizon == now)
        mask = cols.used[:n] & done
        self.stats["column_ops"] += 1
        if not mask.any():
            return
        fids = np.sort(cols.col("fid")[:n][mask])
        finished = [self._active[fid] for fid in fids.tolist()]
        # Bookkeeping before completions, in admission order — exactly
        # the scalar scheduler's insertion-ordered walk.
        for f in finished:
            f._cols.col("remaining")[f._slot] = 0.0
            self._remove(f)
        hook = self.on_complete
        for f in finished:
            if hook is not None:
                hook(f)
            f.done.succeed(f)
        self.stats["completions"] += len(finished)

    def _flush(self) -> None:
        self._dirty = False
        dirty = self._dirty_res
        self._dirty_res = {}
        self.stats["recomputes"] += 1
        if self._active and dirty:
            slots = self._dirty_slots(dirty)
            if slots is not None and len(slots):
                self._fill_columns(slots)
        self._schedule_timer()

    def _dirty_slots(self, dirty) -> np.ndarray | None:
        """Slots of every flow in the union-find component(s) of the
        dirty resources — a conservative superset of the true dirty
        component (see the module docstring for why that is exact)."""
        cols = self.columns
        n = cols.size
        if n == 0:
            return None
        droots = []
        for r in dirty:
            rid = r._rid
            if 0 <= rid < self._next_rid and self._rid_res[rid] is r:
                droots.append(self._find(rid))
        if not droots:
            return None
        droots = np.unique(np.asarray(droots, dtype="i8"))
        roots = self._resolve_roots(cols.col("comp")[:n])
        mask = cols.used[:n] & np.isin(roots, droots)
        self.stats["column_ops"] += 1
        return np.flatnonzero(mask)

    def _fill_columns(self, slots: np.ndarray) -> None:
        """Vectorized progressive filling over one component slice.

        Mirrors ``FlowScheduler._fill`` round for round: same flow
        order (fid-sorted), same resource first-encounter order, same
        first-strict-minimum bottleneck, same flow-major subtraction
        order within a freeze round.
        """
        cols = self.columns
        order = np.argsort(cols.col("fid")[slots])
        slots = slots[order]
        n = len(slots)
        self.stats["recomputed_flows"] += n
        self.stats["column_ops"] += 1

        deg = cols.col("deg")[slots].astype("i8")
        width = int(deg.max())
        rmat = cols.rids[slots, :width]
        emask = np.arange(width) < deg[:, None]
        e_rid = rmat[emask]                       # flow-major edge list
        e_flow = np.repeat(np.arange(n), deg)
        uniq, first_idx, inv = np.unique(e_rid, return_index=True,
                                         return_inverse=True)
        num_res = len(uniq)
        enc = np.argsort(first_idx, kind="stable")  # first-encounter order
        rank = np.empty(num_res, dtype="i8")
        rank[enc] = np.arange(num_res)
        e_local = rank[inv]
        rcap = self._rid_cap[uniq[enc]].copy()
        cnt = np.bincount(e_local, minlength=num_res)

        frate = np.zeros(n)
        unfrozen = np.ones(n, dtype=bool)
        fsel = np.empty(n, dtype=bool)
        rounds = 0
        share = np.empty(num_res)
        while unfrozen.any():
            active = cnt > 0
            if not active.any():  # pragma: no cover - defensive
                break
            share.fill(math.inf)
            np.divide(np.maximum(rcap, 0.0), cnt, out=share, where=active)
            b = int(np.argmin(share))             # first strict minimum
            best = share[b]
            rounds += 1
            fb = e_flow[e_local == b]
            fb = fb[unfrozen[fb]]
            if len(fb):
                unfrozen[fb] = False
                frate[fb] = best
                fsel.fill(False)
                fsel[fb] = True
                rs = e_local[fsel[e_flow]]        # scalar's flow-major order
                np.subtract.at(rcap, rs, best)
                np.subtract.at(cnt, rs, 1)
            cnt[b] = 0
        cols.col("rate")[slots] = frate
        self.stats["filling_rounds"] += rounds

    def _schedule_timer(self) -> None:
        cols = self.columns
        n = cols.size
        horizon = math.inf
        if n:
            rate = cols.col("rate")[:n]
            mask = cols.used[:n] & (rate > 0)
            self.stats["column_ops"] += 1
            if mask.any():
                rem = cols.col("remaining")[:n]
                horizon = float(np.min(rem[mask] / rate[mask]))
        if not math.isfinite(horizon):
            self._cancel_timer()
            return
        fire = self.sim.now + max(horizon, 0.0)
        if self._timer is not None and self._timer_fire == fire:
            self.stats["timer_reuses"] += 1
            return
        self._cancel_timer()
        timer = self.sim.timeout(max(horizon, 0.0))
        timer._add_callback(self._on_timer)
        self._timer = timer
        self._timer_fire = fire
        self.stats["timer_pushes"] += 1
