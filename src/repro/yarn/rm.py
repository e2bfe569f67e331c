"""ResourceManager, NodeManagers, containers and node liveness.

Each NodeManager holds its own hot state (``last_heartbeat``, ``lost``,
capacity accounting) as plain attributes. The NodeManagers registered
when the RM starts heartbeat in phase, all stamped by one batched
periodic; one that rejoins later heartbeats through its own periodic.
The RM's liveness check walks ``node_managers`` in registration order.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field

from repro.cluster import Cluster
from repro.cluster.node import Node
from repro.sim.backoff import BackoffPolicy
from repro.sim.core import Event, SimulationError, Simulator
from repro.sim.rpc import RpcChannel

__all__ = ["Container", "ContainerKilled", "NodeManager", "ResourceManager", "YarnConfig"]

#: Retransmit backoff for lost allocate/grant messages on the fallible
#: control-plane channel (yarn.resourcemanager.connect.retry-interval.ms
#: analogue): base seconds, cap seconds and retry count.
RPC_RETRY_BASE = 0.5
RPC_RETRY_MAX_INTERVAL = 8.0
RPC_RETRY_LIMIT = 12


@dataclass(frozen=True)
class YarnConfig:
    """Table I parameters plus the control-plane timings.

    ``nm_liveness_timeout`` is how long the RM waits after the last NM
    heartbeat before declaring the node lost. Stock YARN defaults to
    600 s; the paper's Fig. 3 timeline shows ~70 s, so that is our
    default.
    """

    min_allocation_mb: int = 1024
    max_allocation_mb: int = 6144
    nm_heartbeat_interval: float = 1.0
    nm_liveness_timeout: float = 70.0
    allocation_latency: float = 1.0
    #: Fraction of node memory usable for containers (OS/daemon headroom).
    nm_memory_fraction: float = 0.92
    # -- fallible RPC (repro.sim.rpc) -----------------------------------
    #: Per-message loss probability on the control-plane channel. The
    #: default 0.0 keeps the channel reliable and strictly pass-through
    #: (no RNG draws, no extra events — digests unchanged).
    rpc_drop_prob: float = 0.0
    #: Per-message delay probability (delivered, but late).
    rpc_delay_prob: float = 0.0
    #: Max extra latency of a delayed message, seconds.
    rpc_max_delay: float = 2.0
    #: Channel seed: message fates are hashed from (seed, lane, seq).
    rpc_seed: int = 0

    def __post_init__(self) -> None:
        if self.min_allocation_mb < 1 or self.max_allocation_mb < self.min_allocation_mb:
            raise SimulationError("invalid allocation bounds")
        if self.nm_heartbeat_interval <= 0 or self.nm_liveness_timeout <= 0:
            raise SimulationError("heartbeat timings must be positive")
        if not (0.0 <= self.rpc_drop_prob < 1.0) or not (0.0 <= self.rpc_delay_prob < 1.0):
            raise SimulationError("rpc probabilities must be in [0, 1)")


class ContainerKilled(Exception):
    """Raised into waiters when a container dies (node loss or preempt)."""

    def __init__(self, container: "Container", reason: str) -> None:
        super().__init__(f"{container} killed: {reason}")
        self.container = container
        self.reason = reason


class Container:
    """A granted chunk of memory on one node.

    ``killed`` triggers (fails) if the node is lost or the container is
    preempted; task processes race their work against it.
    """

    _ids = itertools.count(1)

    def __init__(self, node: Node, memory_mb: int, sim: Simulator) -> None:
        self.container_id = next(Container._ids)
        self.node = node
        self.memory_mb = memory_mb
        self.killed: Event = sim.event()
        self.released = False

    @property
    def alive(self) -> bool:
        return not self.released and not self.killed.triggered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Container {self.container_id} {self.memory_mb}MB on {self.node.name}>"


class NodeManager:
    """Per-node agent: capacity bookkeeping and heartbeats."""

    def __init__(self, node: Node, config: YarnConfig, sim: Simulator) -> None:
        self.node = node
        self.sim = sim
        self.config = config
        self.capacity_mb = int(node.spec.memory_mb * config.nm_memory_fraction)
        self.used_mb = 0
        self.containers: list[Container] = []
        self.last_heartbeat = sim.now
        self.lost = False

    @property
    def available_mb(self) -> int:
        return self.capacity_mb - self.used_mb

    def allocate(self, memory_mb: int) -> Container:
        if self.lost or not self.node.alive:
            raise SimulationError(f"allocate on lost {self.node.name}")
        if memory_mb > self.available_mb:
            raise SimulationError(f"{self.node.name} lacks {memory_mb}MB")
        c = Container(self.node, memory_mb, self.sim)
        self.used_mb += memory_mb
        self.containers.append(c)
        return c

    def release(self, container: Container) -> None:
        if container.released:
            return
        container.released = True
        if container in self.containers:
            self.containers.remove(container)
            self.used_mb -= container.memory_mb

    def kill_all(self, reason: str) -> list[Container]:
        victims = list(self.containers)
        for c in victims:
            self.containers.remove(c)
            self.used_mb -= c.memory_mb
            c.released = True
            if not c.killed.triggered:
                c.killed.defuse()
                c.killed.fail(ContainerKilled(c, reason))
        return victims


@dataclass(order=True)
class _PendingRequest:
    priority: float
    seq: int
    memory_mb: int = field(compare=False)
    preferred: tuple[Node, ...] = field(compare=False)
    grant: Event = field(compare=False)
    excluded: set[int] = field(compare=False, default_factory=set)


class ResourceManager:
    """Grants containers and watches NM liveness.

    Scheduling is event-driven (requests are matched as soon as
    capacity exists) with a fixed ``allocation_latency`` charged per
    grant to stand in for the AM->RM->NM round trips of real YARN.
    """

    def __init__(self, sim: Simulator, cluster: Cluster, config: YarnConfig | None = None,
                 worker_nodes: list[Node] | None = None) -> None:
        self.sim = sim
        self.cluster = cluster
        self.config = config or YarnConfig()
        workers = worker_nodes if worker_nodes is not None else cluster.nodes
        self.node_managers: dict[int, NodeManager] = {
            n.node_id: NodeManager(n, self.config, sim) for n in workers
        }
        cfg = self.config
        #: Control-plane channel; reliable (strict pass-through) unless
        #: the config sets loss/delay probabilities.
        self.rpc = RpcChannel(cfg.rpc_drop_prob, cfg.rpc_delay_prob,
                              cfg.rpc_max_delay, cfg.rpc_seed)
        #: Retransmit schedule shared by the AM allocate loop and the
        #: RM grant-redelivery loop.
        self.retry_policy = BackoffPolicy(base=RPC_RETRY_BASE, max_interval=RPC_RETRY_MAX_INTERVAL,
                                          max_retries=RPC_RETRY_LIMIT)
        #: request_id -> live request. A retransmitted allocate with a
        #: known id returns the *same* grant event without enqueueing a
        #: second request — the structural fix for the double-allocate
        #: (grant-leak) bug class.
        self._requests_by_id: dict[str, _PendingRequest] = {}
        self._pending: list[_PendingRequest] = []
        self._seq = itertools.count()
        # RPC lane names must be run-deterministic: Container ids come
        # from a class-level counter that keeps climbing across runs in
        # one process, so message fates hashed on them would depend on
        # process history. These per-RM sequences restart at zero.
        self._grant_seq = itertools.count()
        self._release_seq = itertools.count()
        #: Listeners invoked as fn(node) when the RM declares a node lost.
        self.node_lost_listeners: list = []
        #: Listeners invoked as fn(node) when a lost node re-registers.
        self.node_rejoined_listeners: list = []
        self._lost_nodes: set[int] = set()
        #: node_id -> how many times the RM has declared it lost over
        #: the RM's lifetime. Unlike any per-AM bookkeeping this
        #: survives AM restarts, so failure-aware placement policies
        #: (e.g. the atlas zoo policy) can recognise a flapping node
        #: even when the job's own outcome history died with the AM.
        self.node_lost_counts: dict[int, int] = {}
        # The NMs registered now heartbeat in phase, so one periodic
        # stamps them all, in registration order. Created before
        # rm-liveness: stamps land before the liveness check at shared
        # instants (DESIGN §8).
        in_phase = list(self.node_managers.values())
        sim.periodic(self.config.nm_heartbeat_interval,
                     lambda: self._heartbeat(in_phase), name="nm-heartbeats")
        sim.periodic(self.config.nm_heartbeat_interval, self._liveness_tick,
                     name="rm-liveness")

    # -- container lifecycle ----------------------------------------------
    def request_container(
        self,
        memory_mb: int,
        priority: float = 10.0,
        preferred_nodes: list[Node] | None = None,
        exclude_nodes: list[Node] | None = None,
        *,
        request_id: str | None = None,
        grant: Event | None = None,
    ) -> Event:
        """Ask for a container; the returned event's value is the
        :class:`Container` once granted (after ``allocation_latency``).

        ``request_id`` makes the call idempotent: a retransmit carrying
        an id the RM has already seen returns the original request's
        grant event and enqueues nothing, so an AM that re-sends after
        a lost response can never be granted two containers for one
        ask. ``grant`` lets the caller supply the event to fulfil
        (the AM-side retry loop hands out its event *before* the first
        send reaches the RM).
        """
        if request_id is not None:
            prior = self._requests_by_id.get(request_id)
            if prior is not None:
                return prior.grant
        cfg = self.config
        memory_mb = max(cfg.min_allocation_mb, min(int(memory_mb), cfg.max_allocation_mb))
        req = _PendingRequest(
            priority=priority,
            seq=next(self._seq),
            memory_mb=memory_mb,
            preferred=tuple(preferred_nodes or ()),
            grant=grant if grant is not None else self.sim.event(),
        )
        if exclude_nodes:
            req.excluded = {n.node_id for n in exclude_nodes}
            req.preferred = tuple(n for n in req.preferred if n.node_id not in req.excluded)
        if request_id is not None:
            self._requests_by_id[request_id] = req
        # (priority, seq) keys are unique, so insort keeps the order a
        # stable sort would give.
        insort(self._pending, req)
        self._match()
        return req.grant

    def release_container(self, container: Container) -> None:
        if self.rpc.fallible:
            # A lost release is retransmitted on the heartbeat cadence
            # until it lands (it is idempotent on the NM side), so loss
            # only *delays* the capacity reclaim. The whole schedule is
            # hash-deterministic, so the delay is computed up front and
            # one sleeper process covers it; the zero-delay case stays
            # synchronous.
            lane = f"release|r{next(self._release_seq)}"
            delay = 0.0
            for _ in range(100):
                outcome = self.rpc.send(lane)
                if not outcome.dropped:
                    delay += outcome.delay
                    break
                delay += RPC_RETRY_BASE
            if delay > 0.0:
                self.sim.process(self._delayed_release(container, delay),
                                 name=f"release-c{container.container_id}")
                return
        nm = self.node_managers.get(container.node.node_id)
        if nm is not None:
            nm.release(container)
        self._match()

    def _delayed_release(self, container: Container, delay: float):
        yield self.sim.timeout(delay)
        nm = self.node_managers.get(container.node.node_id)
        if nm is not None:
            nm.release(container)
        self._match()

    def available_mb(self) -> int:
        return sum(nm.available_mb for nm in self.node_managers.values() if not nm.lost)

    def healthy_nodes(self) -> list[Node]:
        return [nm.node for nm in self.node_managers.values() if not nm.lost and nm.node.alive]

    def is_lost(self, node: Node) -> bool:
        return node.node_id in self._lost_nodes

    def register_node(self, node: Node) -> None:
        """NM (re-)registration after a restart or partition heal.

        A lost NodeManager is terminal (its heartbeat loop has exited
        and its containers were killed), so rejoining builds a *fresh*
        NM with empty capacity accounting — exactly what a restarted NM
        daemon reports. If the partition healed before the liveness
        timeout expired, the old NM is still valid and only its
        heartbeat clock needs resetting.
        """
        old = self.node_managers.get(node.node_id)
        if old is None or not node.reachable:
            return  # not one of our workers, or still unreachable
        if not old.lost:
            old.last_heartbeat = self.sim.now
            return
        nm = NodeManager(node, self.config, self.sim)
        self.node_managers[node.node_id] = nm
        self._lost_nodes.discard(node.node_id)
        self._start_heartbeat(nm)
        for fn in list(self.node_rejoined_listeners):
            fn(node)
        self._match()

    # -- scheduler core -----------------------------------------------------
    def _usable(self, nm: NodeManager, req: _PendingRequest) -> bool:
        return (
            not nm.lost
            and nm.node.reachable
            and nm.available_mb >= req.memory_mb
            and nm.node.node_id not in req.excluded
        )

    def _match(self) -> None:
        # ``room`` is the largest free memory on any live, reachable NM,
        # measured after the first failed pick since the last grant. A
        # request larger than it has no usable node (exclusions and
        # preferences only shrink the candidate set), so skipping its
        # pick is exact and never reaches the tie-break RNG draw. It is
        # computed lazily: most calls grant or see an empty queue.
        granted: list[_PendingRequest] = []
        room: int | None = None
        for req in self._pending:
            if room is not None and req.memory_mb > room:
                continue
            nm = self._pick_node(req)
            if nm is None:
                if room is None:
                    room = max((m.available_mb for m in self.node_managers.values()
                                if not m.lost and m.node.reachable), default=0)
                continue
            container = nm.allocate(req.memory_mb)
            granted.append(req)
            room = None
            self._deliver(req, container)
        for req in granted:
            self._pending.remove(req)

    def _pick_node(self, req: _PendingRequest) -> NodeManager | None:
        for pref in req.preferred:
            nm = self.node_managers.get(pref.node_id)
            if nm is not None and self._usable(nm, req):
                return nm
        # Fall back to a least-loaded usable node. Ties are broken
        # randomly: real YARN allocates in NM-heartbeat arrival order,
        # which is effectively arbitrary, and that arbitrariness is what
        # occasionally leaves a node without any ReduceTask (the paper's
        # Fig. 4 setup).
        candidates = [nm for nm in self.node_managers.values() if self._usable(nm, req)]
        if not candidates:
            return None
        best = max(nm.available_mb for nm in candidates)
        top = [nm for nm in candidates if nm.available_mb >= best - 512]
        return top[int(self.cluster.rng.integers(len(top)))]

    def _deliver(self, req: _PendingRequest, container: Container) -> None:
        def requeue() -> None:
            # Free the stranded allocation first — a short partition can
            # heal before the liveness timeout, so the node-lost
            # kill_all cannot be relied on to reclaim it — then
            # transparently retry with the same grant event.
            nm = self.node_managers.get(container.node.node_id)
            if nm is not None:
                nm.release(container)
            insort(self._pending, _PendingRequest(
                req.priority, next(self._seq), req.memory_mb,
                req.preferred, req.grant, excluded=req.excluded,
            ))
            self._match()

        def handout(sim=self.sim):
            yield sim.timeout(self.config.allocation_latency)
            if self.rpc.fallible:
                # The grant response can be lost on the wire; the RM
                # retransmits with backoff. The container was allocated
                # exactly once above — only its *delivery* retries, so a
                # lossy channel can delay but never double-allocate.
                lane = f"grant|g{next(self._grant_seq)}"
                for attempt in range(RPC_RETRY_LIMIT + 1):
                    outcome = self.rpc.send(lane)
                    if not outcome.dropped:
                        if outcome.delay > 0.0:
                            yield sim.timeout(outcome.delay)
                        break
                    yield sim.timeout(self.retry_policy.interval(attempt, lane))
                else:
                    requeue()  # undeliverable: reclaim and start over
                    return
            if container.alive and container.node.alive and container.node.reachable:
                req.grant.succeed(container)
            else:
                # Node died during handout.
                requeue()

        self.sim.process(handout(), name=f"grant-c{container.container_id}")

    # -- heartbeats & liveness ------------------------------------------------
    # The heartbeat periodics and rm-liveness are fixed-interval wakeups
    # with non-yielding bodies, so they ride the allocation-free
    # Simulator.periodic path.
    def _start_heartbeat(self, nm: NodeManager) -> None:
        # A rejoined NM heartbeats out of phase, from its registration
        # instant. pure: the tick only stamps last_heartbeat — never
        # schedules.
        own = [nm]
        self.sim.periodic(self.config.nm_heartbeat_interval,
                          lambda: self._heartbeat(own),
                          pure=True, name=f"hb:{nm.node.name}")

    def _heartbeat(self, nms: list[NodeManager]) -> bool:
        """One heartbeat from each NM in ``nms``, in list order: drop
        the lost ones (a lost NM never heartbeats again) and stamp the
        reachable ones whose heartbeat the channel delivers. ``False``
        (stop) once none is left."""
        nms[:] = [nm for nm in nms if not nm.lost]
        now = self.sim.now
        rpc = self.rpc if self.rpc.fallible else None
        for nm in nms:
            # A dropped heartbeat leaves the liveness clock aging.
            if nm.node.reachable and not (
                    rpc and rpc.heartbeat_dropped(nm.node.node_id, now)):
                nm.last_heartbeat = now
        return bool(nms)

    def _liveness_tick(self) -> None:
        now, timeout = self.sim.now, self.config.nm_liveness_timeout
        for nm in self.node_managers.values():
            if not nm.lost and now - nm.last_heartbeat >= timeout:
                self._declare_lost(nm)
        if self.rpc.fallible:
            self._reregister_false_losses()

    def _reregister_false_losses(self) -> None:
        """Re-admit nodes declared lost purely through heartbeat loss.

        A healthy NM whose heartbeats were eaten by the channel keeps
        running and re-registers on its next successful round trip —
        modelled here as the next liveness tick after the false
        declaration. Its containers were already killed by
        ``_declare_lost`` (as in real YARN without NM work-preserving
        restart), so re-admission is a fresh, empty NM. Only reachable
        fallible-channel setups ever enter this path."""
        for node_id in sorted(self._lost_nodes):
            nm = self.node_managers.get(node_id)
            if nm is not None and nm.node.alive and nm.node.reachable:
                self.register_node(nm.node)

    def _declare_lost(self, nm: NodeManager) -> None:
        nm.lost = True
        self._lost_nodes.add(nm.node.node_id)
        self.node_lost_counts[nm.node.node_id] = \
            self.node_lost_counts.get(nm.node.node_id, 0) + 1
        nm.kill_all(f"{nm.node.name} lost")
        for fn in list(self.node_lost_listeners):
            fn(nm.node)
        self._match()
