"""The scenario corpus: named, seeded end-to-end runs.

A :class:`Scenario` is a fully-determined job: workload, cluster shape,
recovery policy, HDFS/YARN knobs and a JSON fault schedule (the same
spec language the chaos campaigns speak — :func:`repro.faults.chaos.
build_fault` materialises it). Scenarios are the unit the differential
verifier iterates: every one runs under each kernel x scheduler
implementation pair in ``COMBOS``, and its trace digest is pinned in
``tests/golden/scenarios.json``.

The corpus deliberately spans the axes the paper's claims live on:
workloads (terasort / wordcount / secondarysort) x recovery policies
(yarn / ALG / SFM / ALM / ISS) x fault kinds (none, task OOM, recurring
OOM, node crash, transient partition on both sides of the liveness
timeout, rack failure, degraded node, map wave, event-triggered double
crash). Some scenarios are hand-derived from the experiment drivers
(Fig. 8's ALG task failure, Fig. 9's SFM node failure, Fig. 13's
replication sweep); others are frozen trials of the chaos spec
generator, so generator drift is itself a digest change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster import ClusterSpec
from repro.faults.chaos import build_fault, generate_trial, split_rpc_faults
from repro.faults.inject import FaultInjector
from repro.hdfs.hdfs import HdfsConfig
from repro.mapreduce.config import JobConf
from repro.mapreduce.job import MapReduceRuntime
from repro.sim.core import SimulationError
from repro.workloads import BENCHMARKS
from repro.yarn.rm import YarnConfig

__all__ = [
    "SCENARIOS",
    "Scenario",
    "corpus",
    "quick_corpus",
    "register",
    "run_verify_spec",
    "scenario_spec",
]


@dataclass(frozen=True)
class Scenario:
    """One named, seeded end-to-end verification run.

    ``faults`` is a tuple of chaos-style JSON fault specs (dicts), so a
    scenario round-trips through JSON untouched — reproducers, golden
    files and worker processes all see the same value.
    """

    name: str
    workload: str = "terasort"
    input_gb: float = 1.0
    reducers: int = 3
    nodes: int = 7
    racks: int = 2
    seed: int = 11
    policy: str = "yarn"
    faults: tuple[dict[str, Any], ...] = ()
    liveness: float = 20.0
    replication: int = 2
    #: JobConf overrides, as a tuple of (field, value) pairs (a dict
    #: would break the frozen dataclass's hashability).
    conf: tuple[tuple[str, Any], ...] = ()
    #: RPC-channel knobs, as (name, value) pairs without the ``rpc_``
    #: prefix (e.g. ``("drop_prob", 0.1)`` -> ``rpc_drop_prob=0.1``).
    rpc: tuple[tuple[str, Any], ...] = ()
    #: Enable LATE-style speculative execution (stock defaults).
    speculation: bool = False
    #: Log the high-volume observation kinds (``task_progress``,
    #: ``flow_done``); see ``MapReduceRuntime(record_progress=...)``.
    record_progress: bool = False
    tags: frozenset[str] = field(default_factory=frozenset)

    def to_spec(self) -> dict[str, Any]:
        """The scenario as a plain JSON-able dict (the executable form:
        :func:`run_verify_spec` runs it, the shrinker mutates it)."""
        spec = {
            "name": self.name,
            "workload": self.workload,
            "input_gb": self.input_gb,
            "reducers": self.reducers,
            "nodes": self.nodes,
            "racks": self.racks,
            "seed": self.seed,
            "policy": self.policy,
            "faults": [dict(f) for f in self.faults],
            "liveness": self.liveness,
            "replication": self.replication,
        }
        # Only present when set, so pre-existing scenario specs (and
        # anything keyed on their JSON form) are byte-identical.
        if self.conf:
            spec["conf"] = dict(self.conf)
        if self.rpc:
            spec["rpc"] = dict(self.rpc)
        if self.speculation:
            spec["speculation"] = True
        if self.record_progress:
            spec["record_progress"] = True
        return spec


#: Name -> scenario. Populated at import time, deterministically, so
#: worker processes rebuild the identical registry from the module.
SCENARIOS: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    from repro.policies import policy_names

    if scenario.name in SCENARIOS:
        raise SimulationError(f"duplicate scenario name {scenario.name!r}")
    if scenario.policy not in policy_names():
        raise SimulationError(f"scenario {scenario.name}: unknown policy "
                              f"{scenario.policy!r}")
    if scenario.workload not in BENCHMARKS:
        raise SimulationError(f"scenario {scenario.name}: unknown workload "
                              f"{scenario.workload!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


def corpus(names: list[str] | None = None) -> list[Scenario]:
    """The selected scenarios, in registration order."""
    if names is None:
        return list(SCENARIOS.values())
    missing = [n for n in names if n not in SCENARIOS]
    if missing:
        raise SimulationError(f"unknown scenario(s): {', '.join(missing)}")
    return [SCENARIOS[n] for n in names]


def quick_corpus() -> list[Scenario]:
    """The ``quick``-tagged subset (the tier-1 / ``--quick`` budget)."""
    return [s for s in SCENARIOS.values() if "quick" in s.tags]


def scenario_spec(name: str) -> dict[str, Any]:
    return corpus([name])[0].to_spec()


# -- execution ---------------------------------------------------------------

def run_verify_spec(spec: dict[str, Any],
                    collect_trace: bool = False) -> dict[str, Any]:
    """Run one scenario spec end-to-end; return a JSON-able payload.

    Every verify run also runs the full invariant suite — the payload
    carries violations under ``invariant_violations``, the key the
    :class:`~repro.runner.TrialRunner` hard-fails on, so a scenario
    that breaks an invariant can never quietly pass a digest check.

    ``collect_trace=True`` additionally returns the exported event
    records (``trace_records``) for first-divergence location; such
    payloads are for in-process use (they are large and not cached).
    """
    from repro.invariants import check_invariants
    from repro.policies import make_policy

    wl = BENCHMARKS[spec["workload"]](spec["input_gb"],
                                      num_reducers=spec["reducers"])
    rpc_kwargs, fault_dicts = split_rpc_faults(spec)
    rt = MapReduceRuntime(
        wl,
        conf=JobConf(**spec["conf"]) if spec.get("conf") else None,
        cluster_spec=ClusterSpec(num_nodes=spec["nodes"], num_racks=spec["racks"],
                                 seed=spec["seed"]),
        yarn_config=YarnConfig(nm_liveness_timeout=spec["liveness"], **rpc_kwargs),
        hdfs_config=HdfsConfig(replication=spec["replication"]),
        policy=make_policy(spec["policy"]),
        job_name=f"verify-{spec['name']}",
        speculation=bool(spec.get("speculation", False)),
        record_progress=bool(spec.get("record_progress", False)),
    )
    if fault_dicts:
        FaultInjector(*[build_fault(d) for d in fault_dicts]).install(rt)
    result = rt.run()
    violations = check_invariants(rt, result)

    trace = result.trace
    kinds = dict(trace.summary()["kinds"])
    inj = trace.first("fault_injected")
    lost = trace.first("node_lost")
    payload: dict[str, Any] = {
        "scenario": spec["name"],
        "digest": trace.digest(),
        "success": result.success,
        "elapsed": result.elapsed,
        "kinds": kinds,
        "task_attempts": {
            t.name: len(t.attempts)
            for t in rt.am.map_tasks + rt.am.reduce_tasks if len(t.attempts) != 1
        },
        "reduce_commits": len(rt.am.reduce_commits),
        "num_reduces": rt.am.num_reduces,
        "detect_latency": (lost.time - inj.time) if inj and lost else None,
        "invariant_violations": violations,
    }
    if collect_trace:
        from repro.metrics.export import trace_records

        payload["trace_records"] = trace_records(trace)
    return payload


# -- the corpus --------------------------------------------------------------

def _crash(progress: float = 0.5, target: str | int = "reducer",
           **kw: Any) -> dict[str, Any]:
    return {"kind": "node-crash", "target": target, "at_progress": progress, **kw}


def _from_chaos(campaign_seed: int, index: int, name: str,
                tags: frozenset[str] = frozenset()) -> Scenario:
    """Freeze one generated chaos trial into a named scenario. The
    generator's sampled cluster/fault parameters become part of the
    corpus, so a change to the generator shows up as a digest drift."""
    spec = generate_trial({"seed": campaign_seed, "scale": 0.5}, index)
    return Scenario(
        name=name,
        workload=spec["workload"],
        input_gb=spec["input_gb"],
        reducers=spec["reducers"],
        nodes=spec["nodes"],
        racks=spec["racks"],
        seed=spec["runtime_seed"],
        policy=spec["policy"],
        faults=tuple(spec["faults"]),
        liveness=spec["liveness"],
        tags=tags,
    )


# Fault-free baselines: one per workload, three different policies.
register(Scenario("clean-terasort-yarn", tags=frozenset({"quick", "clean"})))
register(Scenario("clean-wordcount-alg", workload="wordcount", policy="alg",
                  reducers=2, tags=frozenset({"clean"})))
register(Scenario("clean-secondarysort-alm", workload="secondarysort",
                  input_gb=0.75, policy="alm", tags=frozenset({"clean"})))

# Task failures (Fig. 8's shape: OOM mid-reduce under yarn vs ALG).
register(Scenario("oom-reduce-yarn", tags=frozenset({"quick"}), faults=(
    {"kind": "task-oom", "task_type": "reduce", "task_index": 0,
     "at_progress": 0.5},)))
register(Scenario("oom-recurring-alm", policy="alm", faults=(
    {"kind": "task-oom", "task_type": "reduce", "task_index": 1,
     "at_progress": 0.4, "repeat": 2},)))
register(Scenario("oom-map-alg", policy="alg", workload="wordcount",
                  reducers=2, faults=(
    {"kind": "task-oom", "task_type": "map", "task_index": 0,
     "at_progress": 0.6},)))

# Node failures (Fig. 9 / Fig. 10: reducer-hosting node dies mid-phase).
register(Scenario("crash-reducer-sfm", policy="sfm",
                  tags=frozenset({"quick"}),
                  faults=(_crash(0.5),)))
register(Scenario("netfail-reducer-yarn", faults=(
    {"kind": "node-network", "target": "reducer", "at_progress": 0.5},)))
# Spatial amplification (Fig. 4 / Table II: a map-only node dies and
# every reducer re-fetches).
register(Scenario("crash-mapnode-alg", policy="alg", faults=(
    {"kind": "node-crash", "target": "map-only", "at_time": 10.0},)))
# Fig. 13's axis: the same crash with replication raised to 3.
register(Scenario("replication3-crash-alm", policy="alm", replication=3,
                  faults=(_crash(0.5),)))

# Transient partitions on both sides of the liveness timeout.
register(Scenario("partition-straddle-yarn", input_gb=2.5, faults=(
    {"kind": "partition", "node_indices": [1, 2], "at_time": 8.0,
     "duration": 30.0},)))
register(Scenario("partition-short-alm", policy="alm", input_gb=2.5, faults=(
    {"kind": "partition", "node_indices": [3], "at_time": 8.0,
     "duration": 10.0},)))

# Correlated / degraded-mode failures.
register(Scenario("rack-recover-alm", policy="alm", nodes=8, faults=(
    {"kind": "rack", "rack_index": 1, "count": 2, "at_time": 8.0,
     "mode": "crash", "stagger": 1.5, "duration": 60.0},)))
register(Scenario("slow-node-iss", policy="iss", faults=(
    {"kind": "degraded", "node_index": 2, "at_time": 10.0,
     "disk_factor": 0.15, "nic_factor": 0.5, "duration": 60.0},)))
register(Scenario("map-wave-yarn", faults=(
    {"kind": "map-wave", "count": 2, "at_time": 8.0},)))

# Failure amplification during recovery: second crash keyed on the
# trace ("another node dies 10 s after the first node_lost").
register(Scenario("double-crash-recovery-alm", policy="alm", faults=(
    _crash(0.4),
    {"kind": "node-crash", "target": 1,
     "after": {"kind": "node_lost", "delay": 10.0}},)))

# Frozen chaos-generator trials (indices chosen so the sampled faults
# actually fire: sfm under a double node-crash + map wave, iss under a
# recurring task OOM).
register(_from_chaos(2015, 7, "chaos-2015-7"))
register(_from_chaos(2015, 9, "chaos-2015-9"))

# Control-plane failures: the AM itself dies mid-reduce. The quick one
# recovers from the job-history log (completed maps whose MOFs survive
# are not re-executed); the second pairs the scratch-recovery ablation
# with a lossy RPC channel, exercising allocate retries, grant
# redelivery and heartbeat-drop tolerance on the same run.
register(Scenario("am-restart-log-yarn", tags=frozenset({"quick", "am"}),
                  faults=({"kind": "am-crash", "at_progress": 0.5},)))
register(Scenario("am-restart-rerunall-rpcloss-alg", policy="alg",
                  tags=frozenset({"am"}),
                  conf=(("am_recovery", "rerun-all"),
                        ("keep_containers_across_am_restart", True)),
                  rpc=(("drop_prob", 0.08), ("delay_prob", 0.15),
                       ("max_delay", 1.5), ("seed", 42)),
                  faults=({"kind": "am-crash", "at_progress": 0.5},)))
# Two kills against a budget of two incarnations: the second crash
# exhausts am_max_attempts and the job fails for a modelled reason.
# Also the base leg of the am-max-attempts-monotone relation.
register(Scenario("am-exhaust-yarn", tags=frozenset({"am"}),
                  conf=(("am_max_attempts", 2),),
                  faults=({"kind": "am-crash", "at_progress": 0.4,
                           "repeat": 2, "repeat_gap": 6.0},)))

# Flow and speculation exercisers. ``shuffle-heavy-yarn`` maximises
# concurrent shuffle flows (many reducers, extra input) with the
# high-volume observation kinds on; ``straggler-spec-alm`` degrades
# a node hard enough that LATE speculation actually duplicates tasks,
# so the speculator scan and per-attempt progress records are on the
# digest-pinned path.
register(Scenario("shuffle-heavy-yarn", input_gb=2.0, reducers=6, nodes=9,
                  record_progress=True, tags=frozenset({"flows"})))
register(Scenario("straggler-spec-alm", policy="alm", speculation=True,
                  record_progress=True, tags=frozenset({"flows"}), faults=(
    {"kind": "degraded", "node_index": 2, "at_time": 5.0,
     "disk_factor": 0.08, "nic_factor": 0.3, "duration": 300.0},)))

# Policy-zoo exercisers: one scenario per non-seed registry policy,
# each shaped so the policy's distinctive machinery is on the
# digest-pinned path (appended after the historical corpus so the 23
# pre-existing golden digests are untouched).
register(Scenario("binocular-crash-reducer", policy="binocular",
                  tags=frozenset({"zoo"}), faults=(_crash(0.5),)))
register(Scenario("atlas-oom-recurring", policy="atlas",
                  tags=frozenset({"zoo"}), faults=(
    {"kind": "task-oom", "task_type": "reduce", "task_index": 0,
     "at_progress": 0.3, "repeat": 3},)))
register(Scenario("quantile-straggler-spec", policy="quantile",
                  speculation=True, tags=frozenset({"zoo"}), faults=(
    {"kind": "degraded", "node_index": 2, "at_time": 5.0,
     "disk_factor": 0.08, "nic_factor": 0.3, "duration": 300.0},)))
register(Scenario("m3r-crash-mapnode", policy="m3r",
                  tags=frozenset({"zoo"}), faults=(
    {"kind": "node-crash", "target": "map-only", "at_time": 10.0},)))
