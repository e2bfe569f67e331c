"""Columnar max-min flow scheduler: vectorized progressive filling.

:class:`ColumnarFlowScheduler` keeps per-flow ``remaining``/``rate``
state in :class:`~repro.sim.columns.FlowColumns` instead of on the
``Flow`` objects, so the per-instant hot loops — progress advance,
completion scan, timer horizon, and the progressive-filling refill
itself — are single numpy passes over the flow population rather than
per-object python loops. At shuffle-wave scale (thousands of concurrent
flows per instant) this is where the model spends its time once the
kernel and node plane are columnar.

Each resource in use holds a dense id (*rid*) and one row of resource
columns, kept up to date as flows attach and detach: its capacity, its
count of attached flows, and its *encounter key* — the fid of its
earliest-admitted attached user and its position in that flow's route,
packed into one int64 that orders like the pair. The key's upkeep is
the scalar scheduler's (``FlowScheduler._remove`` hands a resource to
its next user); only where the key is stored differs. A rid is recycled
the moment its last user detaches, so the registry stays as small as
the set of busy resources. A refill reads these columns instead of
rebuilding them.

Bit-identity contract (the same one the incremental scheduler pins
against the eager reference, DESIGN.md §13):

- **Same arithmetic, elementwise.** Every vectorized expression is the
  exact float expression the scalar loops evaluate per flow (``rem -
  rate*dt`` clamped at 0, ``cap`` clamped at 0 over ``cnt``,
  ``rem/rate``), and IEEE float ops are elementwise-deterministic, so
  columns hold the same bits the object attributes would.
- **Whole-population fill.** A refill re-shares every attached flow,
  as the scalar fill does. Max-min filling decomposes across connected
  components — a merged fill executes each component's round sequence
  unchanged, interleaved — so flows outside the dirty component land
  on the rates they already had (§13 gives the argument). The flush is
  inherited, so a flush that dirtied only solo resources re-shares
  them without a fill here too (``_reshare_solo`` writes the rate
  column). Only the ``column_ops`` counter differs from the
  incremental scheduler; no rate, completion time, fill count or trace
  byte does.
- **Same tie-break.** The scalar fill visits resources in
  first-encounter order over flows in fid (admission) order, which is
  exactly ascending encounter key. The refill sorts the busy resources
  by that key once per fill (one ``argsort`` of the key column); local
  ids follow that order. While more than ``VECTOR_MIN_FLOWS`` flows are
  unfrozen, a round takes its bottleneck with ``np.argmin``; the scalar
  tail that finishes the fill takes it with ``min`` then ``index`` over
  the resources the unfrozen flows touch, in ascending local id. Both
  are the *first* minimum, the scalar linear scan's tie-break. Every
  capacity subtraction of one freeze round subtracts the same share,
  so their order is immaterial. The round that hands over to the tail
  skips its per-edge updates, and the tail replays them, in the same
  sequence, on the few resources it reads (see :func:`_fill_tail`).
- **Same completion order.** The completion scan yields slots in
  arbitrary (LIFO-reuse) slot order, so finishers are sorted by fid
  before bookkeeping/succeed — the admission order the scalar
  scheduler's insertion-ordered dict walks naturally.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.columns import ColumnStore, FlowColumns
from repro.sim.core import Simulator
from repro.sim.flows import Flow, FlowScheduler, LinkResource

__all__ = ["ColumnarFlowScheduler", "VECTOR_MIN_FLOWS"]

#: A fill runs vectorized freeze rounds while more than this many flows
#: are unfrozen and finishes the rest in scalar code; measured in
#: DESIGN.md §13.
VECTOR_MIN_FLOWS = 32


def _encounter_key(fid: int, pos: int) -> int:
    """A resource's encounter key ``(fid, pos)`` as one int that orders
    like the pair: no route has 2**32 resources, and a fid of 2**31 or
    more overflows the int64 column loudly."""
    return fid << 32 | pos


def _bottleneck(rcap, cnt, share):
    """Fill ``share`` with a numpy round's shares (``inf`` where no
    flow is left) and return the round's bottleneck: the first least
    share in local-id order, which is encounter order, so the pick is
    the scalar fill's ``min`` then ``index``, ties included."""
    share.fill(math.inf)
    np.divide(np.maximum(rcap, 0.0), cnt, out=share, where=cnt > 0)
    return share.argmin()


def _fill_tail(lmat, rcap, cnt, frate, sink: int, best: float) -> int:
    """Finish a fill in scalar code over the unfrozen flows (the rows of
    ``lmat`` that do not start at ``sink``) and the resources they
    touch; returns the freeze rounds it ran.

    ``FlowScheduler._fill``'s loop on the vectorized rounds' state:
    resources in ascending local id (encounter order), each round's
    bottleneck the first minimum share (``min`` then ``index``, as
    ``argmin``), and the same per-edge arithmetic. The hand-over round,
    the last vectorized one, froze its flows at ``best`` without
    updating their resources. A resource whose count exceeds its
    unfrozen users lost the difference in that round, so ``best`` comes
    off its capacity once per lost user, in sequence, as
    ``np.subtract.at`` takes it. Without a vectorized round every count
    equals the unfrozen users and nothing comes off.
    """
    live = (lmat[:, 0] != sink).nonzero()[0]      # unfrozen, slot order
    rows = lmat[live].tolist()
    ids = sorted({j for row in rows for j in row})
    if ids[-1] == sink:                           # route padding
        ids.pop()
    at = dict(zip(ids, range(len(ids))))
    routes = [[at[j] for j in row if j != sink] for row in rows]
    users = [[] for _ in ids]
    for f, route in enumerate(routes):
        for j in route:
            users[j].append(f)
    cap = rcap[ids].tolist()
    counts = list(map(len, users))
    for j, (before, after) in enumerate(zip(cnt[ids].tolist(), counts)):
        for _ in range(before - after):
            cap[j] -= best
    # Every touched resource has an unfrozen user, so no count is 0.
    shares = [(0.0 if c < 0.0 else c) / n for c, n in zip(cap, counts)]

    inf = math.inf
    rates = [None] * len(routes)
    left = len(routes)
    rounds = 0
    while left:
        best = min(shares)
        b = shares.index(best)
        rounds += 1
        for f in users[b]:
            if rates[f] is None:
                rates[f] = best
                left -= 1
                for j in routes[f]:
                    if j != b:
                        c = cap[j] = cap[j] - best
                        n = counts[j] = counts[j] - 1
                        shares[j] = (0.0 if c < 0.0 else c) / n if n else inf
        shares[b] = inf                           # every user froze
    frate[live] = rates
    return rounds


def _min_horizon(cols: FlowColumns) -> float:
    """Least ``remaining / rate`` over the attached moving flows: one
    masked divide into an ``inf``-filled buffer."""
    n = cols.size
    rate = cols.col("rate")[:n]
    horizon = np.full(n, math.inf)
    np.divide(cols.col("remaining")[:n], rate, out=horizon,
              where=cols.used[:n] & (rate > 0))
    return float(horizon.min())


class ColumnarFlowScheduler(FlowScheduler):
    """Incremental scheduler with column-resident flow state."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim)
        self.columns = FlowColumns()
        #: rid -> capacity, attached-flow count, and encounter key (see
        #: :func:`_encounter_key`); one slot per resource with at least
        #: one attached flow.
        self.resources = ColumnStore({"cap": "f8", "count": "i8", "key": "i8"},
                                     capacity=64)

    # -- resource registry ----------------------------------------------------
    # The encounter-key hooks keep the resource rows instead of the
    # scalar scheduler's order list.
    def _resource_busy(self, r: LinkResource, fid: int, pos: int) -> None:
        r._rid = self.resources.alloc(cap=r.capacity, key=_encounter_key(fid, pos))

    def _resource_rekeyed(self, r: LinkResource, fid: int, pos: int) -> None:
        self.resources.col("key")[r._rid] = _encounter_key(fid, pos)

    def _resource_idle(self, r: LinkResource) -> None:
        self.resources.free(r._rid)
        r._rid = -1

    def _attach(self, flow: Flow) -> None:
        cols = self.columns
        rids = [r._rid for r in flow.resources]
        count = self.resources.col("count")
        for rid in rids:
            count[rid] += 1
        deg = len(rids)
        cols.ensure_degree(deg)
        slot = cols.alloc(remaining=flow.remaining, rate=0.0, size=flow.size,
                          threshold=flow._threshold, fid=flow.fid, deg=deg)
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
        slot = flow._slot
        flow.remaining = float(cols.col("remaining")[slot])
        flow._rate = float(cols.col("rate")[slot])
        flow._cols = None
        flow._slot = -1
        cols.free(slot)
        count = self.resources.col("count")
        for r in flow.resources:
            count[r._rid] -= 1
        super()._remove(flow)

    def _reshare(self, resource: LinkResource | None = None) -> None:
        if resource is not None and resource._rid >= 0:
            self.resources.col("cap")[resource._rid] = resource.capacity
        super()._reshare(resource)

    def _advance_and_complete(self, at_timer: bool = False) -> None:
        self._advance()
        cols = self.columns
        n = cols.size
        if n == 0:
            return
        rem = cols.col("remaining")[:n]
        done = rem <= cols.col("threshold")[:n]
        if at_timer:
            # See FlowScheduler._advance_and_complete.
            rate = cols.col("rate")[:n]
            moving = rate > 0
            horizon = np.divide(rem, rate, out=np.ones(n), where=moving)
            now = self.sim.now
            done |= moving & (now + horizon == now)
        mask = cols.used[:n] & done
        self.stats["column_ops"] += 1
        if not mask.any():
            return
        # In admission order — exactly the scalar scheduler's
        # insertion-ordered walk.
        fids = cols.col("fid")[:n][mask]
        if len(fids) > 1:
            fids.sort()
        self._finish([self._active[fid] for fid in fids.tolist()])

    def _fill(self) -> float:
        """Vectorized progressive filling over every attached flow;
        returns the completion horizon of the rates it set.

        Mirrors ``FlowScheduler._fill`` round for round on every
        component at once: resources in encounter-key order, the same
        first-strict-minimum bottleneck, the same per-round share
        subtracted from each frozen flow's resources. Rounds are numpy
        passes while more than ``VECTOR_MIN_FLOWS`` flows are unfrozen
        (a pass costs the same at any width); :func:`_fill_tail`
        finishes the narrow rest.
        """
        res = self.resources
        act = res.used[:res.size].nonzero()[0]
        act = act[res.col("key")[act].argsort()]
        m = len(act)
        # Local ids follow encounter order; the -1 route padding maps
        # to a sink (id m) whose share is never finite.
        local = np.full(res.size + 1, m)
        local[act] = np.arange(m)
        rcap = np.concatenate((res.col("cap")[act], (math.inf,)))
        cnt = np.concatenate((res.col("count")[act], (0,)))

        cols = self.columns
        slots = cols.used[:cols.size].nonzero()[0]
        n = len(slots)
        self.stats["recomputed_flows"] += n
        self.stats["column_ops"] += 1
        lmat = local[cols.rids[slots]]            # flow x route -> local id
        e_local = lmat.ravel()                    # flat edge list (a view)
        width = lmat.shape[1]

        frate = np.empty(n)
        share = np.empty(m + 1)
        left = n
        rounds = 0
        best = 0.0
        while left > VECTOR_MIN_FLOWS:
            b = _bottleneck(rcap, cnt, share)
            best = share[b]
            rounds += 1
            fb = (e_local == b).nonzero()[0] // width  # b's unfrozen users
            frate[fb] = best
            left -= len(fb)
            if left <= VECTOR_MIN_FLOWS:
                # The hand-over round: the tail reads its effect on the
                # few resources it touches from the counts.
                lmat[fb, 0] = m
                break
            rs = lmat[fb]
            lmat[fb] = m                          # frozen: edges to the sink
            np.subtract.at(rcap, rs, best)
            cnt -= np.bincount(rs.ravel(), minlength=m + 1)
        if left:
            rounds += _fill_tail(lmat, rcap, cnt, frate, m, best)
        cols.col("rate")[slots] = frate
        self.stats["filling_rounds"] += rounds
        return _min_horizon(cols)

    def _reshare_solo(self, solo: list[LinkResource]) -> int:
        rate = self.columns.col("rate")
        res_flows = self._res_flows
        flows = 0
        for r in solo:
            bucket = res_flows[r]
            rate[[f._slot for f in bucket.values()]] = r._capacity / len(bucket)
            flows += len(bucket)
        return flows

    def _horizon(self) -> float:
        cols = self.columns
        if cols.size:
            self.stats["column_ops"] += 1
            return _min_horizon(cols)
        return math.inf
