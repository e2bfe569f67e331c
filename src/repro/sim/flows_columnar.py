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
  exactly ascending encounter key, and takes each round's bottleneck as
  the *first* least share in that order. A fill's first round reads the
  resource rows in rid order, so it takes the least share and breaks a
  tie by least key (:func:`_first_bottleneck`): the same resource. If
  more than ``VECTOR_MIN_FLOWS`` flows are left unfrozen, the busy
  resources get local ids in key order (one ``argsort`` of the key
  column) and each further round takes its bottleneck with
  ``np.argmin``. The scalar tail that finishes the fill takes it with
  ``min`` then ``index`` over the resources the unfrozen flows touch,
  sorted by key. Every capacity subtraction of one freeze round
  subtracts the same share, so their order is immaterial. The round
  that hands over to the tail skips its per-edge updates, and the tail
  replays them, in the same sequence, on the few resources it reads
  (see :func:`_fill_tail`).
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


def _first_bottleneck(cap, cnt, key):
    """A fill's first bottleneck, straight from the resource rows: the
    least share ``cap / count`` over the busy rows, and of the rows tied
    at that share the one with the least encounter key. Rids are not in
    encounter order, but the first least share in encounter order is
    exactly that row. A free row's share is ``inf / 0``, infinite and
    no floating-point exception; a busy row's capacity is positive, so
    clamping it at 0 would change nothing. Returns the rid and its
    share as a python float."""
    share = cap / cnt
    b = share.argmin()
    best = share[b]
    tied = (share == best).nonzero()[0]
    if len(tied) > 1:
        b = tied[key[tied].argmin()]
    return b, float(best)


def _fill_tail(rows, rcap, cnt, best, key):
    """Finish a fill in scalar code over the unfrozen flows, whose
    routes are ``rows`` (rids padded with -1), and the resources they
    touch; returns the flows' rates, in row order, and the freeze
    rounds it ran.

    ``FlowScheduler._fill``'s loop on the state the earlier rounds
    left in ``rcap`` and ``cnt`` (indexed by rid): resources in
    encounter order, which is ascending ``key[rid]``; each round's
    bottleneck the first minimum share (``min`` then ``index``); the
    same per-edge arithmetic. The hand-over round, the last one before
    the tail, froze its flows at ``best`` without updating their
    resources. A resource whose count exceeds its unfrozen users lost
    the difference in that round, so ``best`` comes off its capacity
    once per lost user, in sequence, as ``np.subtract.at`` takes it.
    Without an earlier round every count equals the unfrozen users and
    nothing comes off.
    """
    ids = {j for row in rows for j in row}
    ids.discard(-1)
    ids = np.fromiter(ids, np.int64, len(ids))
    ids = ids[key[ids].argsort()]                 # encounter order; keys are unique
    at = dict(zip(ids.tolist(), range(len(ids))))
    routes = [[at[j] for j in row if j >= 0] for row in rows]
    users = [[] for _ in ids]
    for f, route in enumerate(routes):
        for j in route:
            users[j].append(f)
    cap = rcap[ids].tolist()
    counts = list(map(len, users))
    best = float(best)                            # same bits; faster than a numpy scalar
    for j, lost in enumerate(cnt[ids].tolist()):
        lost -= counts[j]
        if lost:
            c = cap[j]
            for _ in range(lost):
                c -= best
            cap[j] = c
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
    return rates, rounds


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
        #: one attached flow. A freed row keeps count 0 and capacity
        #: ``inf`` until reused.
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
        # A free row's share, inf / 0, is never a least share.
        self.resources.col("cap")[r._rid] = math.inf
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

    def _reshare(self, resource: LinkResource) -> None:
        if resource._rid >= 0:
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
        subtracted from each frozen flow's resources. A fill of at most
        ``VECTOR_MIN_FLOWS`` flows is all :func:`_fill_tail`. A wider
        one picks its first bottleneck straight from the resource rows
        (:func:`_first_bottleneck`). If that round leaves at most
        ``VECTOR_MIN_FLOWS`` flows unfrozen, as the core-switch round of
        a wide shuffle does, it is the hand-over round: one compare over
        the route matrix finds its users, they get its share, and the
        tail finishes the rest on their rids. Otherwise the busy
        resources get local ids in encounter order and the rounds are
        numpy passes (a pass costs the same at any width) until the
        tail can take over; the rounds' capacities and counts go back
        onto rid rows for it.
        """
        res = self.resources
        cols = self.columns
        n = len(self._active)
        self.stats["recomputed_flows"] += n
        self.stats["column_ops"] += 1
        used = cols.used[:cols.size]
        rids = cols.rids[:cols.size]
        rate = cols.col("rate")
        rcap = res.col("cap")
        cnt = res.col("count")
        key = res.col("key")
        best = 0.0
        rounds = 0
        if n <= VECTOR_MIN_FLOWS:
            live = used.nonzero()[0]
        else:
            b, best = _first_bottleneck(rcap[:res.size], cnt[:res.size], key)
            rounds = 1
            if n - cnt[b] <= VECTOR_MIN_FLOWS:
                # b's users, and maybe freed slots whose stale routes
                # cross b: their cells are never read before realloc.
                frozen = (rids.ravel() == b).nonzero()[0] // rids.shape[1]
                rate[frozen] = best
                unfrozen = used.copy()
                unfrozen[frozen] = False
                live = unfrozen.nonzero()[0]
            else:
                # Local ids follow encounter order; the -1 route padding
                # maps to a sink (id m) whose share is never finite.
                act = res.used[:res.size].nonzero()[0]
                act = act[key[act].argsort()]
                m = len(act)
                local = np.full(res.size + 1, m)
                local[act] = np.arange(m)
                lcap = np.concatenate((rcap[act], (math.inf,)))
                lcnt = np.concatenate((cnt[act], (0,)))
                slots = used.nonzero()[0]
                lmat = local[rids[slots]]         # flow x route -> local id
                e_local = lmat.ravel()            # flat edge list (a view)
                width = lmat.shape[1]
                frate = np.empty(n)
                share = np.empty(m + 1)
                left = n
                b = local[b]
                while True:
                    fb = (e_local == b).nonzero()[0] // width  # b's unfrozen users
                    frate[fb] = best
                    left -= len(fb)
                    if left <= VECTOR_MIN_FLOWS:
                        # The hand-over round: the tail reads its effect
                        # on the few resources it touches from the counts.
                        lmat[fb, 0] = m
                        break
                    rs = lmat[fb]
                    lmat[fb] = m                  # frozen: edges to the sink
                    np.subtract.at(lcap, rs, best)
                    lcnt -= np.bincount(rs.ravel(), minlength=m + 1)
                    b = _bottleneck(lcap, lcnt, share)
                    best = share[b]
                    rounds += 1
                # The unfrozen flows' cells get the tail's rates below,
                # which it reads from rid rows holding the rounds' state.
                rate[slots] = frate
                live = slots[lmat[:, 0] != m]
                rcap = rcap.copy()
                rcap[act] = lcap[:m]
                cnt = cnt.copy()
                cnt[act] = lcnt[:m]
        if len(live):
            rates, tail_rounds = _fill_tail(rids[live].tolist(), rcap, cnt, best, key)
            rate[live] = rates
            rounds += tail_rounds
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
