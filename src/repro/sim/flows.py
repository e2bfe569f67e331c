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

**Scoped incremental recomputation.** The flush re-shares only the
connected component of the flow/resource bipartite graph reachable from
the dirtied flows and links. Max-min allocation decomposes across
connected components, so untouched components keep their frozen rates —
which are bit-identical to what a full recompute would reassign them.

The filling loop itself works on the component's resources only (not
the cluster's), in lists indexed by first-encounter order, and picks
each round's bottleneck with C-level ``min`` and ``list.index``.

This fluid model is standard in cluster simulators; it preserves the
qualitative behaviour the reproduction needs (disk-bound merging,
NIC-bound shuffles, contention slowdowns) without per-packet events.
:mod:`repro.sim.flows_reference` keeps the eager O(flows · resources)
reference scheduler; equivalence tests pin this implementation to it.
"""

from __future__ import annotations

import itertools
import math
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
                 "_rate", "_active", "_sched", "_cols", "_slot")

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
                remaining = max(0.0, remaining - rate * dt)
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
    mark the touched resources dirty. Rates are re-shared once per
    simulated instant, at its end, scoped to the dirty connected
    component.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: fid -> Flow, in admission order (dict preserves insertion).
        self._active: dict[int, Flow] = {}
        #: resource -> {fid: Flow} adjacency, each bucket in admission order.
        self._res_flows: dict[LinkResource, dict[int, Flow]] = {}
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
                    remaining = max(0.0, remaining - f._rate * dt)
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
        flow.fid = self._next_fid
        self._next_fid += 1
        self._active[flow.fid] = flow
        for r in res:
            self._res_flows.setdefault(r, {})[flow.fid] = flow
        self._mark_dirty(res)
        self.stats["transfers"] += 1
        return flow

    def transfer_many(self, requests: Iterable[dict]) -> list[Flow]:
        """Start several flows at the current instant in one batch.

        Each request is a dict of :meth:`transfer` keyword arguments.
        All flows share a single progress advance and a single deferred
        recompute.
        """
        with self.batch():
            return [self.transfer(**req) for req in requests]

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
        scheduler (mirroring :meth:`_complete_finished`).
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
            f.remaining = max(0.0, f.remaining - f._rate * dt)

    def _reshare(self, resource: LinkResource | None = None) -> None:
        """Re-run fairness after an external capacity change."""
        self._advance()
        self._complete_finished()
        self._mark_dirty((resource,) if resource is not None else tuple(self._res_flows))

    def _complete_finished(self, at_timer: bool = False) -> None:
        """Complete every flow with (almost) nothing left to move. A
        completion timer also completes the flows whose completion
        instant rounds to ``now``: no later timer could ever reach them,
        so without this the timer re-arms at the same instant forever."""
        now = self.sim.now
        finished = [f for f in self._active.values()
                    if f.remaining <= _EPS * max(f.size, 1.0)
                    or (at_timer and f._rate > 0 and now + f.remaining / f._rate == now)]
        # Bookkeeping before completions so callbacks observing the
        # scheduler see a consistent state.
        for f in finished:
            f.remaining = 0.0
            self._remove(f)
        hook = self.on_complete
        for f in finished:
            if hook is not None:
                hook(f)
            f.done.succeed(f)
        self.stats["completions"] += len(finished)

    def _remove(self, flow: Flow) -> None:
        flow._active = False
        del self._active[flow.fid]
        for r in flow.resources:
            bucket = self._res_flows.get(r)
            if bucket is not None:
                bucket.pop(flow.fid, None)
                if not bucket:
                    del self._res_flows[r]
        self._mark_dirty(flow.resources)

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
        """Recompute rates for the dirty connected component and
        refresh the completion timer."""
        self._dirty = False
        dirty = self._dirty_res
        self._dirty_res = {}
        self.stats["recomputes"] += 1
        if self._active and dirty:
            fids = self._component_fids(dirty)
            if fids:
                self._fill(fids)
        self._schedule_timer()

    def _component_fids(self, dirty: Iterable[LinkResource]) -> set[int]:
        """Flows in the connected component(s) reachable from the dirty
        resources over the flow/resource bipartite graph."""
        seen_res = set(dirty)
        stack = list(seen_res)
        fids: set[int] = set()
        res_flows = self._res_flows
        while stack:
            r = stack.pop()
            for fid, f in res_flows.get(r, {}).items():
                if fid not in fids:
                    fids.add(fid)
                    for r2 in f.resources:
                        if r2 not in seen_res:
                            seen_res.add(r2)
                            stack.append(r2)
        return fids

    def _fill(self, fids: set[int]) -> None:
        """Progressive-filling max-min allocation over one component.

        Bit-identical to a full recompute restricted to these flows:
        resources get local ids in first-encounter order over flows in
        admission order, and each round's bottleneck is the first
        minimum share in that order (``min`` then ``index``), which is
        the reference scheduler's strictly-smaller linear scan, ties
        included. The component is closed under adjacency, so a
        resource's users are its whole ``_res_flows`` bucket, already in
        admission order; only the shares a round touched are refreshed.

        (A lazy min-heap selection is tempting but wrong here: shares
        are monotone non-decreasing during filling only in exact
        arithmetic. In floats, ``(C - 2s)/1`` can round an ulp *below*
        ``C/3``, so a stale heap key is not a lower bound and the heap
        can freeze resources in a different order than the reference —
        breaking bit-identical rates.)
        """
        flows = [self._active[fid] for fid in sorted(fids)]
        self.stats["recomputed_flows"] += len(flows)

        local: dict[LinkResource, int] = {}
        for f in flows:
            for r in f.resources:
                if r not in local:
                    local[r] = len(local)
        buckets = [self._res_flows[r] for r in local]
        cap = [r._capacity for r in local]
        counts = [len(bucket) for bucket in buckets]
        shares = [max(c, 0.0) / n for c, n in zip(cap, counts)]

        inf = math.inf
        frozen: set[int] = set()
        left = len(flows)
        rounds = 0
        while left:
            best = min(shares)
            if best == inf:  # only infinite-capacity resources remain
                break
            rounds += 1
            for fid, f in buckets[shares.index(best)].items():
                if fid not in frozen:
                    frozen.add(fid)
                    left -= 1
                    f._rate = best
                    for r2 in f.resources:
                        j = local[r2]
                        c = cap[j] = cap[j] - best
                        n = counts[j] = counts[j] - 1
                        shares[j] = max(c, 0.0) / n if n else inf
        if left:
            for f in flows:
                if f.fid not in frozen:
                    f._rate = 0.0
        self.stats["filling_rounds"] += rounds

    def _schedule_timer(self) -> None:
        horizon = math.inf
        for f in self._active.values():
            if f._rate > 0:
                h = f.remaining / f._rate
                if h < horizon:
                    horizon = h
        if not math.isfinite(horizon):
            self._cancel_timer()
            return
        fire = self.sim.now + max(horizon, 0.0)
        if self._timer is not None and self._timer_fire == fire:
            # Horizon unchanged: reuse the pending timer instead of
            # piling a dead entry onto the event heap.
            self.stats["timer_reuses"] += 1
            return
        self._cancel_timer()
        timer = self.sim.timeout(max(horizon, 0.0))
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
        self._advance()
        self._complete_finished(at_timer=True)
        if not self._dirty:
            # Nothing completed (floating-point residue fire): the
            # flush that would refresh the timer never runs, so refresh
            # it here from the advanced remainders.
            self._schedule_timer()
