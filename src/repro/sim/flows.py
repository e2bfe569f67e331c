"""Max-min fair bandwidth sharing for disks and network links.

Data movement in the cluster model is a *fluid* approximation: a
:class:`Flow` carries ``size`` bytes through an ordered set of
:class:`LinkResource` objects (source disk, source NIC egress,
destination NIC ingress, ...). At any instant every active flow
receives its **max-min fair** rate, computed by progressive filling:
repeatedly find the most-contended resource, freeze all its flows at
the equal share, subtract, and continue. Between rate changes all rates
are constant, so flow completions can be scheduled exactly.

Two structural optimisations keep the hot path sublinear per event at
cluster scale without changing a single allocated rate:

**Same-timestamp coalescing.** Starting, finishing or cancelling a flow
only marks the scheduler *dirty*; the progressive-filling pass runs
once per simulated instant, in an end-of-instant event
(:meth:`Simulator.schedule_late`) that runs after every other event at
its time — follow-up flows admitted by completion callbacks included —
or lazily the moment any rate is observed. A 500-flow shuffle wave
arriving at one timestamp therefore pays one filling pass instead of
500. This is exact: rates only matter once simulated time advances, and
the flush is guaranteed to run before it does.

**Incremental resource state, whole-population fill.** Admitting or
removing a flow keeps the busy resources in *encounter-key* order:
each resource's key is the fid of its earliest-admitted attached user
and its position in that flow's route. The flush re-shares every
attached flow over that kept order, so no fill rebuilds a component,
a sort or a first-encounter map. Max-min allocation decomposes across
connected components, so flows outside the dirtied component land on
the rates they already had, bit for bit. The fill picks each round's
bottleneck with C-level ``min`` and ``list.index`` and returns the
completion horizon of the rates it set, so the flush arms the
completion timer without another pass over the flows.

This fluid model is standard in cluster simulators; it preserves the
qualitative behaviour the reproduction needs (disk-bound merging,
NIC-bound shuffles, contention slowdowns) without per-packet events.
:mod:`repro.sim.flows_reference` keeps the eager O(flows · resources)
reference scheduler; equivalence tests pin this implementation to it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.sim.core import Event, SimulationError, Simulator, Timeout

__all__ = ["Flow", "FlowCancelled", "FlowScheduler", "LinkResource"]

#: Relative tolerance for declaring a flow complete.
_EPS = 1e-9


class FlowCancelled(Exception):
    """Failure payload delivered to waiters of a cancelled flow."""

    def __init__(self, flow: "Flow", reason: str = "") -> None:
        super().__init__(reason or f"flow {flow.name} cancelled")
        self.flow = flow
        self.reason = reason


class LinkResource:
    """A capacity-limited bandwidth resource (bytes/second).

    One instance models one contended device direction: a disk's
    aggregate bandwidth, a NIC's egress, a NIC's ingress, etc.
    """

    __slots__ = ("name", "_capacity", "_scheduler", "_rid")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"link capacity must be > 0, got {capacity}")
        self.name = name
        self._capacity = float(capacity)
        self._scheduler = None
        #: Dense id held while a columnar scheduler has flows on it.
        self._rid = -1

    @property
    def capacity(self) -> float:
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change capacity at the current simulated time (e.g. a slow
        disk on a faulty node). Active flows are re-shared immediately.
        """
        if capacity <= 0:
            raise SimulationError(f"link capacity must be > 0, got {capacity}")
        self._capacity = float(capacity)
        if self._scheduler is not None:
            self._scheduler._reshare(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LinkResource {self.name} {self._capacity:.3g} B/s>"


class Flow:
    """An in-flight transfer of ``size`` bytes across resources."""

    __slots__ = ("name", "size", "remaining", "resources", "done", "fid",
                 "_threshold", "_rate", "_active", "_sched", "_cols", "_slot")

    def __init__(self, name: str, size: float, resources: tuple[LinkResource, ...], done: Event) -> None:
        self.name = name
        self.size = float(size)
        self.remaining = float(size)
        self.resources = resources
        #: Event triggered when the transfer completes (value: the flow)
        #: or fails with :class:`FlowCancelled`.
        self.done = done
        #: Dense per-scheduler integer id, assigned at admission;
        #: monotone in admission order, so sorting fids recovers the
        #: scheduler's flow ordering without touching the flow list.
        self.fid = -1
        #: The flow completes once ``remaining`` is at or below this.
        self._threshold = _EPS * max(self.size, 1.0)
        self._rate = 0.0
        self._active = True
        self._sched = None
        #: While attached to a columnar scheduler, (_cols, _slot) name
        #: the authoritative remaining/rate cells; the instance
        #: attributes are written back at detach.
        self._cols = None
        self._slot = -1

    @property
    def rate(self) -> float:
        """Current allocated rate. Observing the rate flushes any
        pending (coalesced) recompute so callers never see a stale
        mid-instant allocation."""
        sched = self._sched
        if sched is not None and sched._dirty:
            sched._flush()
        cols = self._cols
        if cols is not None:
            return float(cols.col("rate")[self._slot])
        return self._rate

    @property
    def active(self) -> bool:
        """True while the flow is admitted and moving bytes."""
        return self._active

    @property
    def transferred(self) -> float:
        """Bytes moved so far, accurate at the current simulated time."""
        cols = self._cols
        if cols is not None:
            remaining = float(cols.col("remaining")[self._slot])
            rate = float(cols.col("rate")[self._slot])
        else:
            remaining = self.remaining
            rate = self._rate
        if self._active and self._sched is not None and rate > 0:
            dt = self._sched.sim.now - self._sched._last_update
            if dt > 0:
                remaining -= rate * dt
                remaining = remaining if remaining > 0.0 else 0.0
        return self.size - remaining

    @property
    def progress(self) -> float:
        return 1.0 if self.size == 0 else self.transferred / self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Flow {self.name} {self.remaining:.3g}/{self.size:.3g}B @{self._rate:.3g}B/s>"


class FlowScheduler:
    """Tracks active flows and keeps their max-min rates current.

    Mutations (:meth:`transfer`, :meth:`cancel`, capacity changes,
    completions) are cheap: they update the flow/resource adjacency and
    the busy resources' encounter order, and mark the touched resources
    dirty. Rates are re-shared once per simulated instant, at its end.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: fid -> Flow, in admission order (dict preserves insertion).
        self._active: dict[int, Flow] = {}
        #: resource -> {fid: Flow} adjacency, each bucket in admission order.
        self._res_flows: dict[LinkResource, dict[int, Flow]] = {}
        #: The busy resources (the keys of ``_res_flows``) in ascending
        #: encounter key, and each one's key: the fid of its
        #: earliest-admitted attached user and its position in that
        #: flow's route.
        self._order: list[LinkResource] = []
        self._keys: dict[LinkResource, tuple[int, int]] = {}
        self._last_update = sim.now
        self._names = itertools.count()
        self._next_fid = 0
        self._dirty = False
        self._dirty_res: dict[LinkResource, None] = {}
        self._flush_scheduled = False
        self._in_batch = False
        self._timer: Timeout | None = None
        self._timer_fire = math.inf
        #: Optional hook called with each flow the instant it completes
        #: (before its ``done`` event succeeds) — the ``flow_done``
        #: trace kind hangs off this, identically across schedulers.
        self.on_complete = None
        #: Observability counters, printed by ``repro run --report`` and
        #: read by the benchmarks.
        self.stats = {
            "transfers": 0,
            "cancels": 0,
            "completions": 0,
            "recomputes": 0,
            "recomputed_flows": 0,
            "filling_rounds": 0,
            "timer_pushes": 0,
            "timer_reuses": 0,
            "column_ops": 0,
        }

    @property
    def active_flows(self) -> tuple[Flow, ...]:
        return tuple(self._active.values())

    @property
    def active_count(self) -> int:
        return len(self._active)

    def total_transferred(self) -> float:
        """Bytes moved so far across all active flows, in one pass.

        Bit-identical to ``sum(f.transferred for f in active_flows)``
        (same per-flow arithmetic, same admission-order accumulation)
        but reads the clock once and materializes no flow tuple — the
        bulk-rate read activity monitors poll every few seconds.
        """
        dt = self.sim.now - self._last_update
        total = 0.0
        if dt > 0:
            for f in self._active.values():
                remaining = f.remaining
                if f._rate > 0:
                    remaining -= f._rate * dt
                    remaining = remaining if remaining > 0.0 else 0.0
                total += f.size - remaining
        else:
            for f in self._active.values():
                total += f.size - f.remaining
        return total

    # -- public API --------------------------------------------------------
    def transfer(
        self,
        size: float,
        resources: Iterable[LinkResource],
        name: str | None = None,
        rate_cap: float | None = None,
    ) -> Flow:
        """Start moving ``size`` bytes through ``resources``.

        ``rate_cap`` bounds this flow's own rate regardless of
        contention (e.g. a memory-to-memory copy limited by memcpy
        bandwidth); it is implemented as a private single-flow resource
        so the fairness computation stays uniform.
        """
        if size < 0:
            raise SimulationError(f"flow size must be >= 0, got {size}")
        res = tuple(dict.fromkeys(resources))
        if rate_cap is not None:
            res = res + (LinkResource(f"cap-{name or next(self._names)}", rate_cap),)
        if not res:
            raise SimulationError("a flow needs at least one resource or a rate_cap")
        for r in res:
            if r._scheduler is None:
                r._scheduler = self
            elif r._scheduler is not self:
                raise SimulationError(f"{r!r} belongs to another FlowScheduler")
        done = self.sim.event()
        flow = Flow(name or f"flow-{next(self._names)}", size, res, done)
        flow._sched = self
        if size == 0:
            flow._active = False
            done.succeed(flow)
            return flow
        if not self._in_batch:
            self._advance()
        fid = flow.fid = self._next_fid
        self._next_fid += 1
        self._active[fid] = flow
        res_flows = self._res_flows
        for pos, r in enumerate(res):
            bucket = res_flows.get(r)
            if bucket is None:
                res_flows[r] = {fid: flow}
                self._resource_busy(r, fid, pos)
            else:
                bucket[fid] = flow
        self._mark_dirty(res)
        self.stats["transfers"] += 1
        return flow

    def cancel(self, flow: Flow, reason: str = "") -> None:
        """Abort a flow; its ``done`` event fails with :class:`FlowCancelled`."""
        if not flow._active:
            return
        if not self._in_batch:
            self._advance()
        self._remove(flow)
        flow.done.defuse()
        flow.done.fail(FlowCancelled(flow, reason))
        self.stats["cancels"] += 1

    def cancel_many(self, flows: Iterable[Flow], reason: str = "") -> list[Flow]:
        """Cancel several flows with one progress advance and one
        deferred recompute; returns the flows that were still active.

        Bookkeeping completes for the whole batch before the first
        ``done`` event fails, so failure callbacks observe a consistent
        scheduler (mirroring :meth:`_finish`).
        """
        victims = [f for f in flows if f._active]
        if not victims:
            return victims
        with self.batch():
            for f in victims:
                self._remove(f)
            for f in victims:
                f.done.defuse()
                f.done.fail(FlowCancelled(f, reason))
        self.stats["cancels"] += len(victims)
        return victims

    def cancel_flows_using(self, resources, reason: str = "") -> list[Flow]:
        """Cancel every active flow routed through ``resources`` (a
        single :class:`LinkResource` or an iterable of them, e.g. all
        three device directions of a dead node) in one batch."""
        if isinstance(resources, LinkResource):
            resources = (resources,)
        victims: list[Flow] = []
        seen: set[int] = set()
        for r in resources:
            for fid, f in self._res_flows.get(r, {}).items():
                if fid not in seen:
                    seen.add(fid)
                    victims.append(f)
        return self.cancel_many(victims, reason)

    @contextmanager
    def batch(self) -> Iterator["FlowScheduler"]:
        """Group several mutations at the current instant: progress is
        advanced once on entry and per-operation advances are skipped.
        Must not span simulated time (don't yield to the simulator
        inside the block)."""
        if self._in_batch:
            yield self
            return
        self._advance()
        self._in_batch = True
        try:
            yield self
        finally:
            self._in_batch = False

    # -- internals ---------------------------------------------------------
    def _advance(self) -> None:
        """Account progress made since the last rate change."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for f in self._active.values():
            remaining = f.remaining - f._rate * dt
            f.remaining = remaining if remaining > 0.0 else 0.0

    def _reshare(self, resource: LinkResource | None = None) -> None:
        """Re-run fairness after an external capacity change."""
        self._advance_and_complete()
        self._mark_dirty((resource,) if resource is not None else tuple(self._res_flows))

    def _advance_and_complete(self, at_timer: bool = False) -> None:
        """Account progress since the last rate change and complete
        every flow with (almost) nothing left to move, in one pass over
        the flows. A completion timer also completes the flows whose
        completion instant rounds to ``now``: no later timer could ever
        reach them, so without this the timer re-arms at the same
        instant forever."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        finished = []
        for f in self._active.values():
            remaining = f.remaining
            rate = f._rate
            if dt > 0:
                remaining -= rate * dt
                remaining = f.remaining = remaining if remaining > 0.0 else 0.0
            if (remaining <= f._threshold
                    or (at_timer and rate > 0 and now + remaining / rate == now)):
                finished.append(f)
        self._finish(finished)

    def _finish(self, finished: list[Flow]) -> None:
        """Complete ``finished``, given in admission order."""
        # Bookkeeping before completions so callbacks observing the
        # scheduler see a consistent state.
        for f in finished:
            self._remove(f)
            f.remaining = 0.0
        hook = self.on_complete
        for f in finished:
            if hook is not None:
                hook(f)
            f.done.succeed(f)
        self.stats["completions"] += len(finished)

    def _remove(self, flow: Flow) -> None:
        flow._active = False
        fid = flow.fid
        del self._active[fid]
        res_flows = self._res_flows
        for r in flow.resources:
            bucket = res_flows[r]
            was_first = next(iter(bucket)) == fid
            del bucket[fid]
            if not bucket:
                del res_flows[r]
                self._resource_idle(r)
            elif was_first:
                # Buckets are in fid order, so the first entry left is
                # the earliest-admitted user still attached.
                first = next(iter(bucket.values()))
                self._resource_rekeyed(r, first.fid, first.resources.index(r))
        self._mark_dirty(flow.resources)

    # Encounter-key upkeep: a resource gains its first user, changes its
    # first user, or loses its last one.
    def _resource_busy(self, r: LinkResource, fid: int, pos: int) -> None:
        # The newest flow's fid is the largest, so its key goes last.
        self._keys[r] = (fid, pos)
        self._order.append(r)

    def _resource_rekeyed(self, r: LinkResource, fid: int, pos: int) -> None:
        self._resource_idle(r)
        self._keys[r] = (fid, pos)
        insort(self._order, r, key=self._keys.__getitem__)

    def _resource_idle(self, r: LinkResource) -> None:
        keys = self._keys
        order = self._order
        del order[bisect_left(order, keys[r], key=keys.__getitem__)]
        del keys[r]

    def _mark_dirty(self, resources: Iterable[LinkResource]) -> None:
        for r in resources:
            self._dirty_res[r] = None
        self._dirty = True
        if not self._flush_scheduled:
            # One end-of-instant flush: it runs after every other event
            # at the current time, including follow-up flows admitted by
            # completion callbacks, so the instant's churn costs one
            # recompute.
            self._flush_scheduled = True
            self.sim.schedule_late(self._flush_cb)

    def _flush_cb(self, _event: Event) -> None:
        self._flush_scheduled = False
        if self._dirty:
            self._flush()

    def _flush(self) -> None:
        """Re-share the attached flows and refresh the completion timer."""
        self._dirty = False
        dirty = self._dirty_res
        self._dirty_res = {}
        self.stats["recomputes"] += 1
        res_flows = self._res_flows
        # A dirty resource with no attached flow left changes no rate.
        if any(r in res_flows for r in dirty):
            self._schedule_timer(self._fill())
        else:
            self._schedule_timer(self._horizon())

    def _fill(self) -> float:
        """Progressive-filling max-min allocation over every attached
        flow; returns the completion horizon of the rates it set.

        Bit-identical to the reference scheduler's full recompute:
        resources are visited in the kept encounter-key order, which is
        first-encounter order over flows in admission order, and each
        round's bottleneck is the first minimum share in that order
        (``min`` then ``index``), the reference's strictly-smaller
        linear scan, ties included. A resource's users are its
        ``_res_flows`` bucket, already in admission order; only the
        shares a round touched are refreshed.

        (A lazy min-heap selection is tempting but wrong here: shares
        are monotone non-decreasing during filling only in exact
        arithmetic. In floats, ``(C - 2s)/1`` can round an ulp *below*
        ``C/3``, so a stale heap key is not a lower bound and the heap
        can freeze resources in a different order than the reference —
        breaking bit-identical rates.)
        """
        active = self._active
        order = self._order
        self.stats["recomputed_flows"] += len(active)
        local = dict(zip(order, range(len(order))))
        buckets = list(map(self._res_flows.__getitem__, order))
        cap = [r._capacity for r in order]
        counts = list(map(len, buckets))
        shares = [(0.0 if c < 0.0 else c) / n for c, n in zip(cap, counts)]

        inf = math.inf
        horizon = inf
        frozen: set[int] = set()
        left = len(active)
        rounds = 0
        while left:
            best = min(shares)
            if best == inf:  # only infinite-capacity resources remain
                break
            rounds += 1
            low = inf
            for fid, f in buckets[shares.index(best)].items():
                if fid not in frozen:
                    frozen.add(fid)
                    left -= 1
                    f._rate = best
                    if f.remaining < low:
                        low = f.remaining
                    for r in f.resources:
                        j = local[r]
                        c = cap[j] = cap[j] - best
                        n = counts[j] = counts[j] - 1
                        shares[j] = (0.0 if c < 0.0 else c) / n if n else inf
            # Division by a positive rate is monotone, so the round's
            # least remainder gives its least completion delay.
            if best > 0.0 and low / best < horizon:
                horizon = low / best
        if left:
            for fid, f in active.items():
                if fid not in frozen:
                    f._rate = 0.0
        self.stats["filling_rounds"] += rounds
        return horizon

    def _horizon(self) -> float:
        """Earliest completion delay over the moving flows, by a scan."""
        horizon = math.inf
        for f in self._active.values():
            if f._rate > 0:
                h = f.remaining / f._rate
                if h < horizon:
                    horizon = h
        return horizon

    def _schedule_timer(self, horizon: float) -> None:
        if not math.isfinite(horizon):
            self._cancel_timer()
            return
        delay = 0.0 if horizon < 0.0 else horizon
        fire = self.sim.now + delay
        if self._timer is not None and self._timer_fire == fire:
            # Horizon unchanged: reuse the pending timer instead of
            # piling a dead entry onto the event heap.
            self.stats["timer_reuses"] += 1
            return
        self._cancel_timer()
        timer = self.sim.timeout(delay)
        timer._add_callback(self._on_timer)
        self._timer = timer
        self._timer_fire = fire
        self.stats["timer_pushes"] += 1

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._timer_fire = math.inf

    def _on_timer(self, event: Event) -> None:
        if event is not self._timer:  # pragma: no cover - defensive
            return
        self._timer = None
        self._timer_fire = math.inf
        self._advance_and_complete(at_timer=True)
        if not self._dirty:
            # Nothing completed (floating-point residue fire): the
            # flush that would refresh the timer never runs, so refresh
            # it here from the advanced remainders.
            self._schedule_timer(self._horizon())
