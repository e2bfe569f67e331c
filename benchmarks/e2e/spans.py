"""Per-layer spans for the traced benchmark run.

:class:`Tracer` wraps, at class level, the public calls of each layer of
the simulator plus the callbacks the kernel dispatches through its
public ``Simulator.process`` (every generator step) and
``Simulator.periodic`` (every tick). The flow refill has no public entry
point, so the two private callbacks that drive it,
``FlowScheduler._flush_cb`` and ``_on_timer``, are wrapped as well.
Nothing inside ``src/`` records spans; :meth:`Tracer.install` and
:meth:`Tracer.uninstall` patch and restore the classes around each
traced trial.

A span is ``(id, parent id, name id, start, end, trial)``; its name id
maps to a name, a layer and a kind (call, generator step or tick). A
generator step belongs to the layer of the module that defines the
generator, a method to the layer of the module that defines its class.
Spans stay in memory (at most ``span_cap`` of them; the per-name
aggregates always cover every span) and :meth:`Tracer.write_chrome`
writes them as Chrome trace-event JSON.
A layer's self time is the time inside its spans minus the time inside
their child spans, so the self times of all layers add up to the time
inside the root spans.

Wrappers keep ``__name__`` (process and periodic names come from it)
and never store the events a generator yields: the kernel recycles a
``Timeout`` only when nothing else references it.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable

#: Module prefix -> layer; the first matching prefix wins.
_MODULE_LAYERS = (
    ("repro.sim.flows", "flows"),
    ("repro.sim", "core"),
    ("repro.yarn", "yarn"),
    ("repro.mapreduce.recovery", "policies"),
    ("repro.mapreduce", "mapreduce"),
    ("repro.hdfs", "hdfs"),
    ("repro.alm", "alm"),
    ("repro.policies", "policies"),
    ("repro.baselines", "policies"),
    ("repro.metrics", "trace"),
    ("repro.runner", "trace"),
    ("repro.invariants", "invariants"),
    ("repro.faults", "faults"),
    ("repro.cluster", "cluster"),
)

#: Every layer, in report order. ``bench`` holds what no wrapped call
#: covers: the trial's own glue (workload and config construction,
#: payload assembly) and the tracer's bookkeeping between spans.
LAYERS = ("core", "flows", "yarn", "mapreduce", "hdfs", "alm", "policies",
          "trace", "invariants", "faults", "cluster", "bench")

#: Ceiling on spans kept for the Chrome trace (~190 bytes each); the
#: aggregates stay exact beyond it.
SPAN_CAP = 1_000_000

#: Span kinds: a wrapped call, a generator step, a periodic tick.
CALL, STEP, TICK = "call", "step", "tick"
#: Fields of :meth:`Tracer.total`.
CALLS, INCLUSIVE = 0, 1


def layer_of(module: str | None) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module and module.startswith(prefix):
            return layer
    return "bench"


def _wrap_targets() -> list[tuple[type, tuple[str, ...]]]:
    """``(class, private names to wrap too)`` for every class whose
    public methods are spans. Imported lazily: ``repro`` must not load
    before ``run.py`` has set the mode variables."""
    from repro.alm.alg import AnalyticsLogger, AnalyticsLogStore
    from repro.cluster.cluster import Cluster
    from repro.faults import inject, stragglers
    from repro.hdfs.hdfs import Hdfs
    from repro.mapreduce.appmaster import MRAppMaster
    from repro.mapreduce.job import MapReduceRuntime
    from repro.metrics.trace import ProgressSampler, Trace
    from repro.policies import make_policy, policy_names
    from repro.sim.flows import FlowScheduler
    from repro.sim.flows_columnar import ColumnarFlowScheduler
    from repro.sim.flows_reference import ReferenceFlowScheduler
    from repro.yarn.rm import NodeManager, ResourceManager

    classes: list[type] = [
        Cluster, Hdfs, ResourceManager, NodeManager, MapReduceRuntime,
        MRAppMaster, AnalyticsLogStore, AnalyticsLogger, Trace, ProgressSampler,
        ReferenceFlowScheduler, ColumnarFlowScheduler,
        inject.FaultInjector, inject.TaskFault, inject.NodeFault, inject.RackFault,
        inject.PartitionFault, inject.MapWaveFault, inject.AMFault,
        stragglers.SlowNodeFault,
    ]
    for name in policy_names():
        for cls in type(make_policy(name)).__mro__:
            if cls.__module__.startswith("repro.") and cls not in classes:
                classes.append(cls)
    targets = [(cls, ()) for cls in classes]
    targets.append((FlowScheduler, ("_flush_cb", "_on_timer")))
    return targets


class _TracedGenerator:
    """Stands in for a process's generator: every step is a span named
    after the generator, in the layer of the module defining it."""

    def __init__(self, tracer: "Tracer", gen) -> None:
        frame = getattr(gen, "gi_frame", None)
        module = frame.f_globals.get("__name__") if frame is not None else None
        self._nid = tracer.name_id(getattr(gen, "__qualname__", "process"),
                                   layer_of(module), STEP)
        self._tracer = tracer
        self._gen = gen
        self.__name__ = getattr(gen, "__name__", "process")

    def send(self, value):
        return self._tracer.call(self._nid, self._gen.send, value)

    def throw(self, exc):
        return self._tracer.call(self._nid, self._gen.throw, exc)


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self, span_cap: int) -> None:
        #: How many spans to keep for :meth:`write_chrome`.
        self.span_cap = span_cap
        #: name id -> (name, layer, kind)
        self.names: list[tuple[str, str, str]] = []
        self._ids: dict[tuple[str, str, str], int] = {}
        #: name id -> [calls, inclusive seconds, self seconds]
        self.stats: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        #: Timer fires of the flow scheduler, and those that completed
        #: at least one flow.
        self.timer_fires = 0
        self.useful_fires = 0
        #: Trial id stamped on new spans.
        self.trial = 0
        self._next_sid = 0
        self._stack: list[list] = [[0, 0.0]]
        self._saved: list[tuple[Any, str, Any]] = []
        self._targets: list[tuple[type, tuple[str, ...]]] | None = None

    # -- span bookkeeping ------------------------------------------------------
    def name_id(self, name: str, layer: str, kind: str = CALL) -> int:
        key = (name, layer, kind)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
            self.stats.append([0, 0.0, 0.0])
        return nid

    def call(self, nid: int, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of name ``nid``."""
        stack = self._stack
        self._next_sid = sid = self._next_sid + 1
        frame = [sid, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            parent = stack[-1]
            dur = end - start
            parent[1] += dur
            stat = self.stats[nid]
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur - frame[1]
            if len(self.spans) < self.span_cap:
                self.spans.append((sid, parent[0], nid, start, end, self.trial))
            else:
                self.dropped += 1

    def timed(self, fn: Callable, name: str, layer: str, kind: str = CALL) -> Callable:
        nid = self.name_id(name, layer, kind)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, fn, *args, **kwargs)

        return traced

    # -- class-level patching --------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target; call before the trial builds its runtime."""
        import repro.invariants
        from repro.sim.core import Simulator

        if self._targets is None:
            self._targets = _wrap_targets()
        for cls, private in self._targets:
            layer = layer_of(cls.__module__)
            for attr, fn in list(vars(cls).items()):
                public = not attr.startswith("_") or attr == "__init__"
                if not (public or attr in private) or not inspect.isfunction(fn):
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue  # its steps are spans via Simulator.process
                if attr == "_on_timer":
                    fn = self._count_fires(fn)
                self._patch(cls, attr, self.timed(fn, f"{cls.__name__}.{attr}", layer))
        check = vars(repro.invariants)["check_invariants"]
        self._patch(repro.invariants, "check_invariants",
                    self.timed(check, "check_invariants", "invariants"))
        self._patch(Simulator, "run", self.timed(Simulator.run, "Simulator.run", "core"))
        self._patch(Simulator, "process", self._traced_process(Simulator.process))
        self._patch(Simulator, "periodic", self._traced_periodic(Simulator.periodic))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count_fires(self, on_timer: Callable) -> Callable:
        tracer = self

        @functools.wraps(on_timer)
        def counted(sched, event):
            before = sched.stats["completions"]
            try:
                return on_timer(sched, event)
            finally:
                tracer.timer_fires += 1
                tracer.useful_fires += sched.stats["completions"] > before

        return counted

    def _traced_process(self, process: Callable) -> Callable:
        tracer = self

        @functools.wraps(process)
        def traced_process(sim, gen, name=None):
            return process(sim, _TracedGenerator(tracer, gen), name=name)

        return traced_process

    def _traced_periodic(self, periodic: Callable) -> Callable:
        tracer = self

        @functools.wraps(periodic)
        def traced_periodic(sim, interval, fn, immediate=False, pure=False, name=None):
            name = name or getattr(fn, "__name__", "periodic")
            span = tracer.timed(fn, getattr(fn, "__qualname__", name),
                                layer_of(getattr(fn, "__module__", None)), TICK)
            return periodic(sim, interval, span, immediate=immediate, pure=pure,
                            name=name)

        return traced_periodic

    # -- results ---------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, _), (_, _, own) in zip(self.names, self.stats):
            out[layer] += own
        return out

    def total(self, field: int, names: frozenset[str] | None = None,
              layer: str | None = None, kind: str | None = None) -> float:
        """Sum of ``field`` (:data:`CALLS` or :data:`INCLUSIVE`) over the
        span names matching every given filter."""
        return sum(stat[field] for (name, lay, knd), stat in zip(self.names, self.stats)
                   if (names is None or name in names)
                   and (layer is None or lay == layer)
                   and (kind is None or knd == kind))

    def write_chrome(self, path: str) -> None:
        """Write the retained spans as Chrome trace-event JSON (open it in
        Perfetto or ``chrome://tracing``)."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"displayTimeUnit": "ms", "otherData": ')
            out.write(json.dumps({"dropped_spans": self.dropped}))
            out.write(', "traceEvents": [\n')
            for i, (sid, parent, nid, start, end, trial) in enumerate(self.spans):
                name, layer, _ = self.names[nid]
                event = {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                         "ts": round((start - origin) * 1e6, 3),
                         "dur": round((end - start) * 1e6, 3),
                         "args": {"span": sid, "parent": parent, "trial": trial}}
                out.write(("," if i else "") + json.dumps(event) + "\n")
            out.write("]}\n")


#: Span names behind the per-layer counters.
RM_CALLS = frozenset({"ResourceManager.request_container", "ResourceManager.release_container",
                      "ResourceManager.cancel_request", "ResourceManager.register_node"})
ALLOCATE = frozenset({"NodeManager.allocate"})
REFILL = frozenset({"FlowScheduler._flush_cb"})
HDFS_WRITE = frozenset({"Hdfs.write"})
HDFS_READ = frozenset({"Hdfs.read", "Hdfs.read_block"})
LOG_PUT = frozenset({"AnalyticsLogStore.put"})
DIGEST = frozenset({"Trace.digest"})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counts: Counter, sweeps: int,
                  untraced_s: float, traced_s: float,
                  simulated_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, ``name -> (value, unit)``. Times and counts
    are per sweep; ratios are over the whole run. ``counts`` holds the
    runtimes' own counters (``FlowScheduler.stats``, trace-kind counts,
    ``JobResult.counters``) summed over the traced trials; a counter a
    scheduler does not keep reads 0."""
    own = tracer.self_seconds()
    total = tracer.total
    rm_calls = total(CALLS, names=RM_CALLS)
    allocations = total(CALLS, names=ALLOCATE)
    reuses, pushes = counts["timer_reuses"], counts["timer_pushes"]

    def per_sweep(value: float) -> float:
        return value / sweeps

    metrics = {f"{layer}.self_s": (per_sweep(own[layer]), "s")
               for layer in LAYERS if layer != "invariants"}
    metrics.update({
        "yarn.rm_calls": (per_sweep(rm_calls), "count"),
        "yarn.allocations": (per_sweep(allocations), "count"),
        "yarn.allocations_per_rm_call": (_ratio(allocations, rm_calls), "ratio"),
        "yarn.us_per_rm_call": (_ratio(total(INCLUSIVE, names=RM_CALLS) * 1e6, rm_calls), "us"),
        "yarn.tick_s": (per_sweep(total(INCLUSIVE, layer="yarn", kind=TICK)), "s"),
        "flows.refill_calls": (per_sweep(counts["recomputes"]), "count"),
        "flows.refill_s": (per_sweep(total(INCLUSIVE, names=REFILL)), "s"),
        "flows.timer_fires": (per_sweep(tracer.timer_fires), "count"),
        "flows.useful_fire_ratio": (_ratio(tracer.useful_fires, tracer.timer_fires), "ratio"),
        "flows.transfers": (per_sweep(counts["transfers"]), "count"),
        "flows.completions": (per_sweep(counts["completions"]), "count"),
        "flows.recomputed_flows": (per_sweep(counts["recomputed_flows"]), "count"),
        "flows.filling_rounds": (per_sweep(counts["filling_rounds"]), "count"),
        "flows.timer_reuse_ratio": (_ratio(reuses, reuses + pushes), "ratio"),
        "flows.column_ops": (per_sweep(counts["column_ops"]), "count"),
        "core.process_steps": (per_sweep(total(CALLS, kind=STEP)), "count"),
        "core.periodic_ticks": (per_sweep(total(CALLS, kind=TICK)), "count"),
        "core.sim_s_per_wall_s": (_ratio(simulated_s, untraced_s), "s/s"),
        "mapreduce.process_steps": (per_sweep(total(CALLS, layer="mapreduce", kind=STEP)),
                                    "count"),
        "mapreduce.attempts": (per_sweep(counts["attempt_start"]), "count"),
        "mapreduce.failed_attempts": (
            per_sweep(counts["failed_map_attempts"] + counts["failed_reduce_attempts"]),
            "count"),
        "mapreduce.map_reruns": (per_sweep(counts["map_reruns"]), "count"),
        "hdfs.writes": (per_sweep(total(CALLS, names=HDFS_WRITE)), "count"),
        "hdfs.reads": (per_sweep(total(CALLS, names=HDFS_READ)), "count"),
        "alm.log_records": (per_sweep(total(CALLS, names=LOG_PUT)), "count"),
        "alm.regenerations": (per_sweep(counts["sfm_regenerate"]), "count"),
        "trace.events": (per_sweep(counts["events"]), "count"),
        "trace.digest_s": (per_sweep(total(INCLUSIVE, names=DIGEST)), "s"),
        "invariants.s": (per_sweep(own["invariants"]), "s"),
        "faults.fired": (per_sweep(counts["fault_injected"]), "count"),
        "tracing_overhead": (_ratio(traced_s, untraced_s) - 1.0, "ratio"),
    })
    return metrics
