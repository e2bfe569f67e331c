"""Reference (eager, full-recompute) max-min flow scheduler.

This is the seed implementation of :class:`~repro.sim.flows.FlowScheduler`
kept verbatim as an executable specification: every flow start, finish,
cancel or capacity change runs one progressive-filling pass over *all*
active flows with a linear bottleneck scan, and every recompute pushes a
fresh (version-checked) completion timer onto the event heap.

It exists for two jobs:

- **Equivalence testing.** The incremental/coalesced scheduler must
  produce bit-identical rates, completion times and experiment trace
  digests. ``REPRO_SCHEDULER=reference`` makes :class:`~repro.cluster.Cluster`
  use this class so whole seeded experiments can be diffed end-to-end.
- **Benchmarking.** ``benchmarks/bench_flow_scheduler.py`` reports
  events/sec before (this class) vs. after (the incremental one).

It shares :class:`~repro.sim.flows.Flow`, ``LinkResource`` and
``FlowCancelled`` with the production module, so model code cannot tell
the schedulers apart; it also mirrors the batch API (``cancel_many``,
iterable ``cancel_flows_using``, ``batch()``) by degrading each to the
seed's sequential per-operation behaviour.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.sim.core import Event, SimulationError, Simulator
from repro.sim.flows import _EPS, Flow, FlowCancelled, LinkResource

__all__ = ["ReferenceFlowScheduler"]


class ReferenceFlowScheduler:
    """Eager full-recompute scheduler (the seed implementation)."""

    #: The production scheduler defers recomputes behind this flag and
    #: ``Flow.rate`` consults it; the reference never defers.
    _dirty = False

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._active: list[Flow] = []
        self._last_update = sim.now
        self._timer_version = 0
        self._names = itertools.count()
        self._next_fid = 0
        #: Completion hook, mirrored from the production scheduler so
        #: the ``flow_done`` trace kind fires identically here.
        self.on_complete = None
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
            "solo_reshares": 0,
        }

    @property
    def active_flows(self) -> tuple[Flow, ...]:
        return tuple(self._active)

    @property
    def active_count(self) -> int:
        return len(self._active)

    def total_transferred(self) -> float:
        """See ``FlowScheduler.total_transferred`` — same single-pass
        bulk read, bit-identical to summing ``Flow.transferred``."""
        dt = self.sim.now - self._last_update
        total = 0.0
        if dt > 0:
            for f in self._active:
                remaining = f.remaining
                if f._rate > 0:
                    remaining = max(0.0, remaining - f._rate * dt)
                total += f.size - remaining
        else:
            for f in self._active:
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
        self._advance()
        flow.fid = self._next_fid
        self._next_fid += 1
        self._active.append(flow)
        self._recompute()
        self.stats["transfers"] += 1
        return flow

    def cancel(self, flow: Flow, reason: str = "") -> None:
        if not flow._active:
            return
        self._advance()
        flow._active = False
        self._active.remove(flow)
        exc = FlowCancelled(flow, reason)
        flow.done.defuse()
        flow.done.fail(exc)
        self._recompute()
        self.stats["cancels"] += 1

    def cancel_many(self, flows: Iterable[Flow], reason: str = "") -> list[Flow]:
        victims = [f for f in flows if f._active]
        for f in victims:
            self.cancel(f, reason)
        return victims

    def cancel_flows_using(self, resources, reason: str = "") -> list[Flow]:
        if isinstance(resources, LinkResource):
            resources = (resources,)
        all_victims: list[Flow] = []
        # The seed behaviour: one sequential cancel sweep per resource,
        # each victim paying its own advance + full recompute.
        for resource in resources:
            victims = [f for f in self._active if resource in f.resources]
            for f in victims:
                self.cancel(f, reason)
            all_victims.extend(victims)
        return all_victims

    @contextmanager
    def batch(self) -> Iterator["ReferenceFlowScheduler"]:
        yield self

    # -- internals ---------------------------------------------------------
    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for f in self._active:
            f.remaining = max(0.0, f.remaining - f._rate * dt)

    def _reshare(self, resource: LinkResource) -> None:
        self._advance()
        self._complete_finished()
        self._recompute()

    def _complete_finished(self, at_timer: bool = False) -> None:
        # at_timer: see FlowScheduler._complete_finished.
        now = self.sim.now
        finished = [f for f in self._active
                    if f.remaining <= _EPS * max(f.size, 1.0)
                    or (at_timer and f._rate > 0 and now + f.remaining / f._rate == now)]
        for f in finished:
            f.remaining = 0.0
            f._active = False
            self._active.remove(f)
        hook = self.on_complete
        for f in finished:
            if hook is not None:
                hook(f)
            f.done.succeed(f)
        self.stats["completions"] += len(finished)

    def _recompute(self) -> None:
        """Progressive-filling max-min allocation over *all* active flows."""
        flows = self._active
        if not flows:
            return
        self.stats["recomputes"] += 1
        self.stats["recomputed_flows"] += len(flows)
        res_flows: dict[LinkResource, list[Flow]] = {}
        for f in flows:
            for r in f.resources:
                res_flows.setdefault(r, []).append(f)
        remaining_cap = {r: r.capacity for r in res_flows}
        unfrozen_count = {r: len(fl) for r, fl in res_flows.items()}
        unfrozen = set(f.fid for f in flows)
        rate: dict[int, float] = {}

        while unfrozen:
            bottleneck: LinkResource | None = None
            best_share = math.inf
            for r, cnt in unfrozen_count.items():
                if cnt > 0:
                    share = max(remaining_cap[r], 0.0) / cnt
                    if share < best_share:
                        best_share = share
                        bottleneck = r
            if bottleneck is None:  # pragma: no cover - defensive
                break
            self.stats["filling_rounds"] += 1
            for f in res_flows[bottleneck]:
                if f.fid in unfrozen:
                    unfrozen.discard(f.fid)
                    rate[f.fid] = best_share
                    for r2 in f.resources:
                        remaining_cap[r2] -= best_share
                        unfrozen_count[r2] -= 1
            unfrozen_count[bottleneck] = 0

        for f in flows:
            f._rate = rate.get(f.fid, 0.0)
        self._schedule_timer()

    def _schedule_timer(self) -> None:
        self._timer_version += 1
        version = self._timer_version
        horizon = math.inf
        for f in self._active:
            if f._rate > 0:
                horizon = min(horizon, f.remaining / f._rate)
        if not math.isfinite(horizon):
            return

        def fire(_event: Event) -> None:
            if version != self._timer_version:
                return
            self._advance()
            self._complete_finished(at_timer=True)
            self._recompute()

        self.sim.timeout(max(horizon, 0.0))._add_callback(fire)
        self.stats["timer_pushes"] += 1
