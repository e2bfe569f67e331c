"""The scenario corpus: named, seeded end-to-end runs.

A scenario is a trial spec (the JSON form :func:`repro.faults.chaos.
build_runtime` builds, faults and all) plus a ``name``.
Scenarios are the unit the differential verifier iterates: every one
runs under each flow-scheduler implementation in ``COMBOS``,
and its trace digest is pinned in ``tests/golden/scenarios.json``.

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

import copy
from typing import Any

from repro.faults.chaos import OPTIONAL_KEYS, REQUIRED_KEYS, build_runtime, generate_trial
from repro.sim.core import SimulationError
from repro.workloads import BENCHMARKS

__all__ = [
    "SCENARIOS",
    "corpus",
    "register",
    "run_verify_spec",
    "scenario_spec",
]

#: What every scenario runs unless it overrides a key: a 1 GB terasort
#: on a 7-node, 2-rack cluster under stock YARN recovery.
BASE_SPEC: dict[str, Any] = {
    "workload": "terasort",
    "input_gb": 1.0,
    "reducers": 3,
    "nodes": 7,
    "racks": 2,
    "runtime_seed": 11,
    "policy": "yarn",
    "faults": [],
    "liveness": 20.0,
    "replication": 2,
}

#: Name -> scenario spec. Populated at import time, deterministically,
#: so worker processes rebuild the identical registry from the module.
SCENARIOS: dict[str, dict[str, Any]] = {}


def register(name: str, **keys: Any) -> dict[str, Any]:
    """Add the scenario ``name``: :data:`BASE_SPEC` with ``keys`` set."""
    from repro.policies import policy_names

    if name in SCENARIOS:
        raise SimulationError(f"duplicate scenario name {name!r}")
    unknown = sorted(set(keys) - set(REQUIRED_KEYS + OPTIONAL_KEYS))
    if unknown:
        raise SimulationError(f"scenario {name}: unknown spec key(s) "
                              f"{', '.join(unknown)}")
    spec = {"name": name, **copy.deepcopy(BASE_SPEC), **keys}
    if spec["policy"] not in policy_names():
        raise SimulationError(f"scenario {name}: unknown policy {spec['policy']!r}")
    if spec["workload"] not in BENCHMARKS:
        raise SimulationError(f"scenario {name}: unknown workload "
                              f"{spec['workload']!r}")
    SCENARIOS[name] = spec
    return spec


def corpus(names: list[str] | None = None) -> list[dict[str, Any]]:
    """The selected scenarios, in registration order."""
    if names is None:
        return list(SCENARIOS.values())
    missing = [n for n in names if n not in SCENARIOS]
    if missing:
        raise SimulationError(f"unknown scenario(s): {', '.join(missing)}")
    return [SCENARIOS[n] for n in names]


def scenario_spec(name: str) -> dict[str, Any]:
    """A private copy of one scenario's spec, free to mutate."""
    return copy.deepcopy(corpus([name])[0])


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

    rt = build_runtime(spec, f"verify-{spec['name']}")
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


def _from_chaos(campaign_seed: int, index: int, name: str) -> dict[str, Any]:
    """Freeze one generated chaos trial into a named scenario. The
    generator's sampled cluster/fault parameters become part of the
    corpus, so a change to the generator shows up as a digest drift."""
    trial = generate_trial({"seed": campaign_seed, "scale": 0.5}, index)
    return register(name, **{k: trial[k] for k in REQUIRED_KEYS + OPTIONAL_KEYS
                             if k in trial})


# Fault-free baselines: one per workload, three different policies.
register("clean-terasort-yarn")
register("clean-wordcount-alg", workload="wordcount", policy="alg",
         reducers=2)
register("clean-secondarysort-alm", workload="secondarysort",
         input_gb=0.75, policy="alm")

# Task failures (Fig. 8's shape: OOM mid-reduce under yarn vs ALG).
register("oom-reduce-yarn", faults=[
    {"kind": "task-oom", "task_type": "reduce", "task_index": 0,
     "at_progress": 0.5}])
register("oom-recurring-alm", policy="alm", faults=[
    {"kind": "task-oom", "task_type": "reduce", "task_index": 1,
     "at_progress": 0.4, "repeat": 2}])
register("oom-map-alg", policy="alg", workload="wordcount", reducers=2, faults=[
    {"kind": "task-oom", "task_type": "map", "task_index": 0,
     "at_progress": 0.6}])

# Node failures (Fig. 9 / Fig. 10: reducer-hosting node dies mid-phase).
register("crash-reducer-sfm", policy="sfm", faults=[_crash(0.5)])
register("netfail-reducer-yarn", faults=[
    {"kind": "node-network", "target": "reducer", "at_progress": 0.5}])
# Spatial amplification (Fig. 4 / Table II: a map-only node dies and
# every reducer re-fetches).
register("crash-mapnode-alg", policy="alg", faults=[
    {"kind": "node-crash", "target": "map-only", "at_time": 10.0}])
# Fig. 13's axis: the same crash with replication raised to 3.
register("replication3-crash-alm", policy="alm", replication=3,
         faults=[_crash(0.5)])

# Transient partitions on both sides of the liveness timeout.
register("partition-straddle-yarn", input_gb=2.5, faults=[
    {"kind": "partition", "node_indices": [1, 2], "at_time": 8.0,
     "duration": 30.0}])
register("partition-short-alm", policy="alm", input_gb=2.5, faults=[
    {"kind": "partition", "node_indices": [3], "at_time": 8.0,
     "duration": 10.0}])

# Correlated / degraded-mode failures.
register("rack-recover-alm", policy="alm", nodes=8, faults=[
    {"kind": "rack", "rack_index": 1, "count": 2, "at_time": 8.0,
     "mode": "crash", "stagger": 1.5, "duration": 60.0}])
register("slow-node-iss", policy="iss", faults=[
    {"kind": "degraded", "node_index": 2, "at_time": 10.0,
     "disk_factor": 0.15, "nic_factor": 0.5, "duration": 60.0}])
register("map-wave-yarn", faults=[
    {"kind": "map-wave", "count": 2, "at_time": 8.0}])

# Failure amplification during recovery: second crash keyed on the
# trace ("another node dies 10 s after the first node_lost").
register("double-crash-recovery-alm", policy="alm", faults=[
    _crash(0.4),
    {"kind": "node-crash", "target": 1,
     "after": {"kind": "node_lost", "delay": 10.0}}])

# Frozen chaos-generator trials (indices chosen so the sampled faults
# actually fire: sfm under a double node-crash + map wave, iss under a
# recurring task OOM).
_from_chaos(2015, 7, "chaos-2015-7")
_from_chaos(2015, 9, "chaos-2015-9")

# Control-plane failures: the AM itself dies mid-reduce. The first one
# recovers from the job-history log (completed maps whose MOFs survive
# are not re-executed); the second pairs the scratch-recovery ablation
# with a lossy RPC channel, exercising allocate retries, grant
# redelivery and heartbeat-drop tolerance on the same run.
register("am-restart-log-yarn", faults=[{"kind": "am-crash", "at_progress": 0.5}])
register("am-restart-rerunall-rpcloss-alg", policy="alg",
         conf={"am_recovery": "rerun-all",
               "keep_containers_across_am_restart": True},
         rpc={"drop_prob": 0.08, "delay_prob": 0.15, "max_delay": 1.5,
              "seed": 42},
         faults=[{"kind": "am-crash", "at_progress": 0.5}])
# Two kills against a budget of two incarnations: the second crash
# exhausts am_max_attempts and the job fails for a modelled reason.
# Also the base leg of the am-max-attempts-monotone relation.
register("am-exhaust-yarn", conf={"am_max_attempts": 2},
         faults=[{"kind": "am-crash", "at_progress": 0.4, "repeat": 2,
                  "repeat_gap": 6.0}])

# Flow and speculation exercisers. ``shuffle-heavy-yarn`` maximises
# concurrent shuffle flows (many reducers, extra input) with the
# high-volume observation kinds on; ``straggler-spec-alm`` degrades
# a node hard enough that LATE speculation actually duplicates tasks,
# so the speculator scan and per-attempt progress records are on the
# digest-pinned path.
register("shuffle-heavy-yarn", input_gb=2.0, reducers=6, nodes=9,
         record_progress=True)
register("straggler-spec-alm", policy="alm", speculation=True,
         record_progress=True, faults=[
    {"kind": "degraded", "node_index": 2, "at_time": 5.0,
     "disk_factor": 0.08, "nic_factor": 0.3, "duration": 300.0}])

# Policy-zoo exercisers: one scenario per non-seed registry policy,
# each shaped so the policy's distinctive machinery is on the
# digest-pinned path (appended after the historical corpus so the 23
# pre-existing golden digests are untouched).
register("binocular-crash-reducer", policy="binocular", faults=[_crash(0.5)])
register("atlas-oom-recurring", policy="atlas", faults=[
    {"kind": "task-oom", "task_type": "reduce", "task_index": 0,
     "at_progress": 0.3, "repeat": 3}])
register("quantile-straggler-spec", policy="quantile", speculation=True, faults=[
    {"kind": "degraded", "node_index": 2, "at_time": 5.0,
     "disk_factor": 0.08, "nic_factor": 0.3, "duration": 300.0}])
register("m3r-crash-mapnode", policy="m3r", faults=[
    {"kind": "node-crash", "target": "map-only", "at_time": 10.0}])
