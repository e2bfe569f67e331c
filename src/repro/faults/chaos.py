"""Seeded chaos campaigns: random fault schedules × policies × workloads,
checked against the simulation-wide invariants.

A campaign is fully determined by ``(campaign seed, trial index)``:
trial ``i`` derives its workload, cluster shape, policy and fault
schedule from ``numpy.random.default_rng([seed, i])``, so the same seed
always regenerates the identical campaign — schedules *and* trace
digests. Trials fan out through the
:class:`~repro.runner.TrialRunner` (``jobs`` worker processes and the
campaign store's memoization apply unchanged).

Every trial runs the full invariant suite (:mod:`repro.invariants`).
A violation produces a *reproducer*: a self-contained JSON spec (the
exact fault schedule plus every sampled parameter) that
``python -m repro chaos --replay FILE`` re-executes, after a greedy
minimization pass has shrunk the schedule to the smallest subset of
faults that still violates.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.cluster import ClusterSpec
from repro.faults.inject import (
    AMFault,
    EventTrigger,
    FaultInjector,
    MapWaveFault,
    NodeFault,
    PartitionFault,
    RackFault,
    TaskFault,
)
from repro.faults.stragglers import SlowNodeFault
from repro.hdfs.hdfs import HdfsConfig
from repro.mapreduce.config import JobConf
from repro.mapreduce.job import MapReduceRuntime
from repro.mapreduce.tasks import TaskType
from repro.sim.core import SimulationError
from repro.workloads import BENCHMARKS
from repro.yarn.rm import YarnConfig

__all__ = [
    "AM_FAULT_KINDS",
    "CHAOS_POLICIES",
    "FAULT_KINDS",
    "FAULT_SPECS",
    "build_fault",
    "build_runtime",
    "generate_trial",
    "minimize_spec",
    "reproducer_path",
    "run_campaign",
    "run_chaos_trial",
    "run_trial_spec",
]

#: Every recovery policy under test, rotated across trial indices.
CHAOS_POLICIES = ("yarn", "alg", "sfm", "alm", "iss")

#: Fault-schedule archetypes, rotated across trial indices so every
#: kind appears regardless of campaign size (gcd(5, 8) = 1 means all
#: 40 policy x kind pairs appear within 40 trials).
FAULT_KINDS = (
    "task-oom",
    "task-oom-recurring",
    "node-crash",
    "node-partition-recover",
    "rack-crash",
    "degraded-node",
    "map-wave",
    "crash-during-recovery",
)

#: Control-plane archetypes, appended to the pool only when the
#: campaign opts in (``am_faults=True`` / ``chaos --am-faults``) so
#: historical campaign seeds — and the frozen chaos scenarios in the
#: golden corpus — keep regenerating byte-identical schedules.
#: gcd(5, 11) = 1 keeps full policy x kind coverage within 55 trials.
AM_FAULT_KINDS = (
    "am-crash",
    "rpc-loss",
    "am-crash-rpc-loss",
)


# -- schedule generation -----------------------------------------------------

def generate_trial(campaign: dict[str, Any], index: int) -> dict[str, Any]:
    """Derive trial ``index``'s complete spec from the campaign seed."""
    rng = np.random.default_rng([int(campaign["seed"]), int(index)])
    scale = float(campaign.get("scale", 1.0))
    # An explicit policy roster widens (or narrows) the rotation; its
    # absence keeps every historical campaign seed regenerating the
    # exact schedules it always did.
    policies = tuple(campaign.get("policies") or CHAOS_POLICIES)
    workload = ("terasort", "wordcount", "secondarysort")[int(rng.integers(3))]
    nodes = int(rng.integers(6, 10))
    spec: dict[str, Any] = {
        "index": index,
        "policy": policies[index % len(policies)],
        "workload": workload,
        "input_gb": round(float(rng.uniform(2.0, 5.0)) * scale, 3),
        "reducers": int(rng.integers(2, 5)),
        "nodes": nodes,
        "racks": 2 if nodes < 8 else int(rng.integers(2, 4)),
        "liveness": float(rng.choice([20.0, 40.0])),
        "runtime_seed": int(rng.integers(1, 2**31 - 1)),
        "hard_timeout": float(campaign.get("hard_timeout", 100_000.0)),
        "stall_timeout": float(campaign.get("stall_timeout", 2_000.0)),
    }
    pool = FAULT_KINDS + (AM_FAULT_KINDS if campaign.get("am_faults") else ())
    kinds = [pool[index % len(pool)]]
    if rng.random() < 0.4:  # sometimes compound two archetypes
        kinds.append(pool[int(rng.integers(len(pool)))])
    spec["faults"] = []
    for kind in kinds:
        spec["faults"].extend(_sample_faults(kind, rng, spec))
    return spec


def _sample_faults(kind: str, rng: np.random.Generator,
                   spec: dict[str, Any]) -> list[dict[str, Any]]:
    workers = spec["nodes"] - 1  # node 0 hosts the RM/NameNode
    if kind == "task-oom":
        return [{
            "kind": "task-oom",
            "task_type": "reduce" if rng.random() < 0.7 else "map",
            "task_index": int(rng.integers(spec["reducers"])),
            "at_progress": round(float(rng.uniform(0.1, 0.9)), 3),
        }]
    if kind == "task-oom-recurring":
        # repeat=2 also OOMs the recovery attempt (fault-during-recovery).
        return [{
            "kind": "task-oom",
            "task_type": "reduce",
            "task_index": int(rng.integers(spec["reducers"])),
            "at_progress": round(float(rng.uniform(0.2, 0.8)), 3),
            "repeat": 2,
        }]
    if kind == "node-crash":
        fault: dict[str, Any] = {
            "kind": "node-crash",
            "target": ("reducer", "map-only", int(rng.integers(workers)))[
                int(rng.integers(3))],
        }
        if rng.random() < 0.5:
            fault["at_progress"] = round(float(rng.uniform(0.2, 0.8)), 3)
        else:
            fault["at_time"] = round(float(rng.uniform(20.0, 150.0)), 1)
        if rng.random() < 0.5:  # power-cycled machine rejoins, disk intact
            fault["duration"] = round(float(rng.uniform(60.0, 200.0)), 1)
        return [fault]
    if kind == "node-partition-recover":
        # Durations straddle the liveness timeout on purpose: some heal
        # before the RM notices, some after (full lost -> rejoin path).
        duration = round(float(rng.uniform(10.0, 4.0 * spec["liveness"])), 1)
        if rng.random() < 0.5 and workers >= 3:
            count = int(rng.integers(2, min(4, workers)))
            picks = rng.choice(workers, size=count, replace=False)
            return [{
                "kind": "partition",
                "node_indices": sorted(int(i) for i in picks),
                "at_time": round(float(rng.uniform(15.0, 120.0)), 1),
                "duration": duration,
            }]
        return [{
            "kind": "node-network",
            "target": int(rng.integers(workers)),
            "at_time": round(float(rng.uniform(15.0, 120.0)), 1),
            "duration": duration,
        }]
    if kind == "rack-crash":
        fault = {
            "kind": "rack",
            "rack_index": int(rng.integers(spec["racks"])),
            "mode": "crash" if rng.random() < 0.5 else "network",
            "at_time": round(float(rng.uniform(20.0, 120.0)), 1),
            "stagger": round(float(rng.uniform(0.0, 5.0)), 2),
        }
        if rng.random() < 0.6:
            fault["count"] = int(rng.integers(1, 3))
        if rng.random() < 0.5:
            fault["duration"] = round(float(rng.uniform(60.0, 200.0)), 1)
        return [fault]
    if kind == "degraded-node":
        fault = {
            "kind": "degraded",
            "node_index": int(rng.integers(workers)),
            "at_time": round(float(rng.uniform(5.0, 80.0)), 1),
            "disk_factor": round(float(rng.uniform(0.05, 0.5)), 3),
            "nic_factor": round(float(rng.uniform(0.2, 1.0)), 3),
        }
        if rng.random() < 0.5:
            fault["duration"] = round(float(rng.uniform(40.0, 150.0)), 1)
        return [fault]
    if kind == "map-wave":
        return [{
            "kind": "map-wave",
            "count": int(rng.integers(1, 4)),
            "at_time": round(float(rng.uniform(2.0, 30.0)), 1),
        }]
    if kind == "crash-during-recovery":
        # First crash by progress; second crash keyed on the trace —
        # "another node dies N seconds after the first node_lost".
        first: dict[str, Any] = {
            "kind": "node-crash",
            "target": "reducer",
            "at_progress": round(float(rng.uniform(0.3, 0.7)), 3),
        }
        second: dict[str, Any] = {
            "kind": "node-crash",
            "target": int(rng.integers(workers)),
            "after": {"kind": "node_lost",
                      "delay": round(float(rng.uniform(5.0, 20.0)), 1)},
        }
        if rng.random() < 0.4:
            second["duration"] = round(float(rng.uniform(80.0, 200.0)), 1)
        return [first, second]
    if kind in ("am-crash", "am-crash-rpc-loss"):
        # The AM knobs live in spec["conf"], not in the fault dict:
        # they are environment (how the relaunched AM recovers), and
        # minimization must not be able to drop them.
        conf = spec.setdefault("conf", {})
        conf["am_recovery"] = "log" if rng.random() < 0.7 else "rerun-all"
        conf["keep_containers_across_am_restart"] = bool(rng.random() < 0.5)
        conf["am_max_attempts"] = int(rng.integers(2, 4))
        fault = {"kind": "am-crash"}
        if rng.random() < 0.6:
            fault["at_progress"] = round(float(rng.uniform(0.2, 0.8)), 3)
        else:
            fault["at_time"] = round(float(rng.uniform(20.0, 150.0)), 1)
        if rng.random() < 0.3:  # sometimes also crash the successor
            fault["repeat"] = 2
        faults = [fault]
        if kind == "am-crash-rpc-loss":
            faults.append(_sample_rpc_loss(rng))
        return faults
    if kind == "rpc-loss":
        return [_sample_rpc_loss(rng)]
    raise SimulationError(f"unknown chaos fault kind {kind!r}")


def _sample_rpc_loss(rng: np.random.Generator) -> dict[str, Any]:
    """A lossy-RPC 'fault': not an injector but a YarnConfig overlay —
    :func:`build_runtime` translates it into channel knobs. Keeping it
    in the fault list makes reproducers self-contained and lets
    minimization drop it like any other fault."""
    return {
        "kind": "rpc-loss",
        "drop_prob": round(float(rng.uniform(0.02, 0.15)), 3),
        "delay_prob": round(float(rng.uniform(0.05, 0.25)), 3),
        "max_delay": round(float(rng.uniform(0.5, 3.0)), 2),
        "seed": int(rng.integers(1, 2**31 - 1)),
    }


# -- spec -> injector, runtime -----------------------------------------------

#: JSON fault kind -> (injector class, constructor arguments the kind
#: itself fixes). ``rpc-loss`` is not an injector: :func:`build_runtime`
#: turns it into RPC-channel knobs.
FAULT_SPECS: dict[str, tuple[type, dict[str, Any]]] = {
    "task-oom": (TaskFault, {}),
    "node-crash": (NodeFault, {"mode": "crash"}),
    "node-network": (NodeFault, {"mode": "network"}),
    "partition": (PartitionFault, {}),
    "rack": (RackFault, {}),
    "degraded": (SlowNodeFault, {}),
    "map-wave": (MapWaveFault, {}),
    "am-crash": (AMFault, {}),
}

#: JSON fault key -> its constructor argument, once its type is checked
#: (an integer time or factor becomes a float). Keys not listed pass
#: through unchanged.
_CASTS: dict[str, Callable[[Any], Any]] = {
    "task_type": TaskType,
    "node_indices": tuple,
    **dict.fromkeys(("at_time", "at_progress", "duration", "stagger", "delay",
                     "disk_factor", "nic_factor", "repeat_gap"), float),
}


def _json(*types: type) -> Callable[[Any], bool]:
    """A check for JSON values of ``types``; a bool is not a number."""
    return lambda value: isinstance(value, types) and (
        bool in types or not isinstance(value, bool))


#: Annotation -> the check its JSON values pass (an integer is a
#: ``float``); a key with any other annotation passes through or is cast.
_JSON_TYPES = {"int": _json(int), "float": _json(int, float), "str": _json(str),
               "bool": _json(bool), "list": _json(list),
               "tuple[int, ...]": lambda value: isinstance(value, list)
               and all(map(_json(int), value))}


def _check_type(where: str, key: str, value: Any, annotation: str) -> None:
    """``X | None`` accepts null and the values of ``X``."""
    if annotation.endswith(" | None"):
        if value is None:
            return
        annotation = annotation.removesuffix(" | None")
    check = _JSON_TYPES.get(annotation)
    if check is not None and not check(value):
        raise SimulationError(f"{where} key {key!r}: expected {annotation}, got {value!r}")


def _arguments(cls: type, d: dict[str, Any], where: str,
               fixed: dict[str, Any] | None = None, prefix: str = "") -> dict[str, Any]:
    """Constructor arguments for ``cls`` from the JSON object ``d`` (a
    field is named ``prefix`` + its key) plus the ``fixed`` ones; the
    class's defaults fill the rest. An unknown key, a missing required
    key or a value of the wrong type is an error naming ``where`` and
    the key."""
    if not isinstance(d, dict):
        raise SimulationError(f"{where} is not a JSON object: {d!r}")
    args = dict(fixed or {})
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init and f.name not in args}
    for key, value in d.items():
        field = fields.get(prefix + key)
        if field is None:
            raise SimulationError(f"{where} has unknown key {key!r}")
        try:
            if key == "after":
                value = EventTrigger(**_arguments(EventTrigger, value, f"{where} 'after'"))
            else:
                _check_type(where, key, value, field.type)
                if value is not None and key in _CASTS:
                    value = _CASTS[key](value)
        except (TypeError, ValueError) as exc:
            raise SimulationError(f"{where} key {key!r}: {exc}") from None
        args[field.name] = value
    for name, f in fields.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and name not in args:
            raise SimulationError(f"{where} is missing key {name!r}")
    return args


def build_fault(d: dict[str, Any]):
    """Materialise one JSON fault spec as an injector object."""
    if not isinstance(d, dict):
        raise SimulationError(f"fault spec is not a JSON object: {d!r}")
    kind = d.get("kind")
    if kind not in FAULT_SPECS:
        raise SimulationError(f"unknown fault spec kind {kind!r}")
    cls, fixed = FAULT_SPECS[kind]
    keys = {k: v for k, v in d.items() if k != "kind"}
    return cls(**_arguments(cls, keys, f"{kind} fault spec", fixed))


#: Keys every trial spec carries; :func:`build_runtime` names any that
#: is missing.
REQUIRED_KEYS = ("workload", "input_gb", "reducers", "nodes", "racks",
                 "runtime_seed", "policy", "faults")

#: Keys that fall back to the runtime defaults when omitted.
OPTIONAL_KEYS = ("liveness", "conf", "rpc", "replication", "speculation",
                 "record_progress")

#: The type of each trial spec key that is not an object.
_SPEC_TYPES = {"workload": "str", "policy": "str", "input_gb": "float", "reducers": "int", "nodes": "int",
               "racks": "int", "runtime_seed": "int", "faults": "list", "liveness": "float",
               "replication": "int", "speculation": "bool", "record_progress": "bool",
               "hard_timeout": "float", "stall_timeout": "float"}


def _require(spec: dict[str, Any], keys: tuple[str, ...]) -> None:
    missing = [k for k in keys if k not in spec]
    if missing:
        raise SimulationError(
            f"trial spec is missing required key(s): {', '.join(missing)}")


def build_runtime(spec: dict[str, Any], job_name: str) -> MapReduceRuntime:
    """Wire the runtime one JSON trial spec describes, faults installed.

    ``rpc-loss`` entries in ``faults`` are RPC-channel overlays, not
    injectors; an explicit ``rpc`` block (keys named without the
    ``rpc_`` prefix) applies on top of them.
    """
    from repro.policies import make_policy

    _require(spec, REQUIRED_KEYS)
    for key, annotation in _SPEC_TYPES.items():
        if key in spec:
            _check_type("trial spec", key, spec[key], annotation)
    if spec["workload"] not in BENCHMARKS:
        raise SimulationError(f"unknown workload {spec['workload']!r}")
    wl = BENCHMARKS[spec["workload"]](spec["input_gb"],
                                      num_reducers=spec["reducers"])
    yarn: dict[str, Any] = {}
    if "liveness" in spec:
        yarn["nm_liveness_timeout"] = spec["liveness"]
    faults = []
    for d in spec["faults"]:
        if isinstance(d, dict) and d.get("kind") == "rpc-loss":
            yarn.update(_arguments(YarnConfig, {k: v for k, v in d.items() if k != "kind"},
                                   "rpc-loss fault spec", prefix="rpc_"))
        else:
            faults.append(build_fault(d))
    yarn.update(_arguments(YarnConfig, spec.get("rpc") or {}, "rpc block", prefix="rpc_"))
    rt = MapReduceRuntime(
        wl,
        conf=JobConf(**_arguments(JobConf, spec["conf"], "conf block")) if spec.get("conf") else None,
        cluster_spec=ClusterSpec(num_nodes=spec["nodes"], num_racks=spec["racks"],
                                 seed=spec["runtime_seed"]),
        yarn_config=YarnConfig(**yarn),
        hdfs_config=(HdfsConfig(replication=spec["replication"])
                     if "replication" in spec else None),
        policy=make_policy(spec["policy"]),
        job_name=job_name,
        speculation=spec.get("speculation", False),
        record_progress=spec.get("record_progress", False),
    )
    FaultInjector(*faults).install(rt)
    return rt


# -- execution ---------------------------------------------------------------

def run_trial_spec(spec: dict[str, Any]) -> dict[str, Any]:
    """Run one fully-specified trial; returns outcome + violations."""
    from repro.invariants import check_invariants, state_probe

    _require(spec, ("index",))
    rt = build_runtime(spec, f"chaos-{spec['index']}")
    result = rt.run(timeout=spec.get("hard_timeout", 100_000.0),
                    stall_timeout=spec.get("stall_timeout", 2_000.0))
    violations = check_invariants(rt, result)
    payload: dict[str, Any] = {
        "spec": spec,
        "success": result.success,
        "elapsed": round(result.elapsed, 3),
        "violations": violations,
        "faults_fired": len(rt.trace.of_kind("fault_injected")),
        "faults_skipped": len(rt.trace.of_kind("fault_skipped")),
        "nodes_lost": result.counters.get("nodes_lost", 0),
        "digest": result.trace.digest(),
    }
    if violations:
        payload["state"] = state_probe(rt)
    return payload


def run_chaos_trial(seed: int, campaign: dict[str, Any]) -> dict[str, Any]:
    """:class:`TrialRunner` fan-out target; ``seed`` is the trial index."""
    return run_trial_spec(generate_trial(campaign, seed))


def minimize_spec(
    spec: dict[str, Any],
    violates: Callable[[dict[str, Any]], bool] | None = None,
    floor: int = 1,
) -> dict[str, Any]:
    """Greedily shrink a violating schedule: keep dropping single faults
    while the remainder still violates. O(n^2) runs, n = #faults (small).

    ``violates`` is the oracle — given a candidate spec, does it still
    exhibit the failure? It defaults to "re-run the trial and check the
    invariant suite" (the chaos campaign's oracle); the metamorphic
    verifier (:mod:`repro.verify.metamorphic`) passes its own relation
    check instead, with ``floor=0`` because a relation can fail with no
    faults at all (the bug is then in the fault-free transform).
    """
    if violates is None:
        def violates(candidate: dict[str, Any]) -> bool:
            return bool(run_trial_spec(candidate)["violations"])
    faults = list(spec["faults"])
    changed = True
    while changed and len(faults) > floor:
        changed = False
        for i in range(len(faults)):
            candidate = dict(spec, faults=faults[:i] + faults[i + 1:])
            if violates(candidate):
                faults = candidate["faults"]
                changed = True
                break
    return dict(spec, faults=faults)


# -- campaign driver ---------------------------------------------------------

def reproducer_path(out_dir: str | Path, seed: int, scale: float,
                    campaign_id: str, index: int) -> Path:
    """Reproducer filename for one violating trial. Carries the scale
    and the campaign digest as well as the seed: two campaigns with the
    same seed but different ``--scale`` (or any other spec difference)
    must never overwrite each other's reproducers in a shared ``--out``
    directory."""
    return (Path(out_dir) /
            f"chaos-repro-s{seed}-x{scale:g}-{campaign_id[:8]}-t{index}.json")


def run_campaign(
    spec: dict[str, Any],
    store: Any = None,
    out_dir: str | Path | None = None,
    minimize: bool = True,
    echo=print,
    jobs: int = 1,
) -> dict[str, Any]:
    """Run (or resume) the chaos campaign ``spec`` describes (``kind``
    ``chaos``: ``seed``, ``trials``, optional ``scale``, ``am_faults``,
    ``policies``, ``hard_timeout``, ``stall_timeout``) through
    :func:`repro.campaign.run_spec` across ``jobs`` worker processes;
    write a reproducer per violating trial.

    ``store`` selects durability: ``None`` runs on an ephemeral
    in-memory store, a path (or an open
    :class:`~repro.campaign.CampaignStore`) makes the campaign durable —
    every completed trial is checkpointed as it finishes, and running
    the same spec against the same store again (or ``python -m repro
    campaign resume``) re-runs only what is missing.

    Returns :func:`~repro.campaign.run_spec`'s accounting (``spec``,
    ``campaign_id``, ``trials``, ``executed``, ``skipped``,
    ``wall_seconds``) plus the per-policy / per-kind coverage counts,
    the violating trial indices, the trial digests and the reproducer
    paths.
    """
    from repro.campaign import aggregate_chaos, open_store, run_spec
    from repro.runner import atomic_write_text

    with open_store(store) as opened:
        run_stats = run_spec(spec, opened, jobs=jobs)
        campaign_id = run_stats["campaign_id"]
        seed, scale = run_stats["spec"]["seed"], run_stats["spec"]["scale"]
        summary = aggregate_chaos(opened.payloads(campaign_id))

        reproducers: list[str] = []
        for trial_index, payload in opened.payloads(campaign_id):
            if not payload["violations"]:
                continue
            trial = payload["spec"]
            echo(f"trial {trial['index']}: INVARIANT VIOLATION")
            for v in payload["violations"]:
                echo(f"  - {v}")
            minimized = minimize_spec(trial) if minimize else trial
            repro = {
                "campaign_seed": seed,
                "campaign_id": campaign_id,
                "scale": scale,
                "trial_index": trial["index"],
                "violations": payload["violations"],
                "spec": trial,
                "minimized_faults": minimized["faults"],
            }
            if out_dir is not None:
                path = reproducer_path(out_dir, seed, scale, campaign_id,
                                       trial["index"])
                path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_text(path, json.dumps(repro, indent=2, sort_keys=True))
                reproducers.append(str(path))
                echo(f"  reproducer written to {path} "
                     f"({len(minimized['faults'])}/{len(trial['faults'])} faults "
                     "after minimization)")
    return {**run_stats, **summary, "reproducers": reproducers}
