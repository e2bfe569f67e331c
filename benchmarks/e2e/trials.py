"""The benchmark's workloads: each is a fixed list of trials (a *sweep*).

Every trial calls one public entry point of the simulator —
:func:`repro.experiments.common.run_benchmark_trial` for the paper's
jobs, :func:`repro.faults.chaos.run_trial_spec` for chaos trials — and
returns its payload. Sizes are fixed here; ``REPRO_SCALE`` is not read.
In the paper workloads, trial ``k`` of a sweep for seed ``S`` runs with
seed ``S + 101*k``.

A trial's ``label`` names its inputs completely; ``expected.json`` pins
digests by label.

``repro`` is imported inside the trial calls, never at module import,
so that ``run.py --impl`` can set the mode variables first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Seeds whose paper-workload trials are pinned: the default and one
#: held out.
PINNED_SEEDS = (2015, 7919)

#: Node-crash points of the Fig. 9/15 sweep (fraction of reduce progress).
RECOVERY_POINTS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: Chaos trials are drawn from one pinned campaign: trial indices
#: ``0..CHAOS_POOL-1`` of campaign seed ``CHAOS_CAMPAIGN``, every one
#: free of invariant violations at the time it was pinned. The seed of
#: a run picks ``CHAOS_TRIALS`` of them and their order. Other campaign
#: seeds do hit simulator defects (see README.md, known issues), and a
#: benchmark run must not fail on inputs the simulator cannot yet run.
CHAOS_CAMPAIGN = 2015
CHAOS_POOL = 1200
CHAOS_TRIALS = 300

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def load_pins(workload: str) -> dict[str, dict]:
    """Trial label -> ``{"digest", "elapsed", "wall_s"}``."""
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text()).get(workload, {})


@dataclass(frozen=True)
class JobTrial:
    """One paper job under one recovery system, optionally with the
    reducer's node failing at ``crash_at`` reduce progress (the paper's
    method: its network services stop)."""

    name: str
    seed: int
    job: str
    input_gb: float
    reducers: int
    system: str
    crash_at: float | None = None
    nodes: int = 21
    racks: int = 2

    @property
    def label(self) -> str:
        return f"{self.name}-s{self.seed}"

    def __call__(self) -> dict[str, Any]:
        from functools import partial

        from repro.cluster import ClusterSpec
        from repro.experiments.common import ExperimentConfig, run_benchmark_trial
        from repro.faults import kill_node_at_progress
        from repro.workloads import BENCHMARKS

        workload = BENCHMARKS[self.job](self.input_gb, num_reducers=self.reducers)
        config = ExperimentConfig(cluster=ClusterSpec(num_nodes=self.nodes,
                                                      num_racks=self.racks))
        fault = None
        if self.crash_at is not None:
            fault = partial(kill_node_at_progress, self.crash_at, target="reducer")
        payload = run_benchmark_trial(self.seed, workload, self.system, fault,
                                      base_config=config, job_name=self.name)
        return {"elapsed": payload["elapsed"], "digest": payload["digest"],
                "violations": payload["invariant_violations"]}


@dataclass(frozen=True)
class ChaosTrial:
    """Trial ``index`` of the chaos campaign seeded ``seed``: AM faults
    on, every registered recovery policy in the rotation."""

    seed: int
    index: int
    scale: float = 1.0

    @property
    def label(self) -> str:
        return f"chaos-s{self.seed}-x{self.scale:g}-t{self.index}"

    def __call__(self) -> dict[str, Any]:
        from repro.faults.chaos import generate_trial, run_trial_spec
        from repro.policies import policy_names

        campaign = {"seed": self.seed, "am_faults": True, "scale": self.scale,
                    "policies": list(policy_names())}
        payload = run_trial_spec(generate_trial(campaign, self.index))
        return {"elapsed": payload["elapsed"], "digest": payload["digest"],
                "violations": payload["violations"]}


def _jobs(seed: int, configs: list[tuple], **shape) -> list[JobTrial]:
    """Number ``configs`` — ``(job, input_gb, reducers, system,
    crash_at)`` tuples — into trials with seeds ``seed + 101*k``."""
    trials = []
    for k, (job, input_gb, reducers, system, crash_at) in enumerate(configs):
        point = "ff" if crash_at is None else f"crash@{crash_at:g}"
        trials.append(JobTrial(f"{k}-{job}-{system}-{point}", seed + 101 * k,
                               job, input_gb, reducers, system, crash_at, **shape))
    return trials


def terasort_testbed(seed: int, smoke: bool) -> list[JobTrial]:
    gb, reducers = (2.0, 4) if smoke else (100.0, 20)
    runs = [("yarn", None), ("yarn", 0.5), ("sfm", 0.5), ("alm", 0.5)]
    return _jobs(seed, [("terasort", gb, reducers, system, p) for system, p in runs])


def shuffle_wide(seed: int, smoke: bool) -> list[JobTrial]:
    nodes, racks, gb, reducers = (32, 4, 1.0, 8) if smoke else (256, 8, 10.0, 64)
    points = (None, 0.5) if smoke else (None, 0.5) * 3
    return _jobs(seed, [("terasort", gb, reducers, "yarn", p) for p in points],
                 nodes=nodes, racks=racks)


def chaos_pool(smoke: bool) -> list[ChaosTrial]:
    count, scale = (12, 0.25) if smoke else (CHAOS_POOL, 1.0)
    return [ChaosTrial(CHAOS_CAMPAIGN, i, scale) for i in range(count)]


def chaos_campaign(seed: int, smoke: bool) -> list[ChaosTrial]:
    """One pool trial from each of ``CHAOS_TRIALS`` strata of trials with
    similar pinned host time, in an order of the seed's. Chaos trials
    differ in cost by 2x and more, so 300 drawn at random from the pool
    differ by ~3% from seed to seed; strata make every seed's sweep
    about the same amount of work."""
    import numpy as np

    pool = chaos_pool(smoke)
    rng = np.random.default_rng(seed)
    if smoke:
        return [pool[i] for i in rng.permutation(len(pool)).tolist()]
    pins = load_pins("chaos-campaign")
    by_cost = sorted(range(len(pool)), key=lambda i: pins.get(pool[i].label, {}).get("wall_s", 0.0))
    size = len(pool) // CHAOS_TRIALS
    picks = [by_cost[k * size + int(rng.integers(size))] for k in range(CHAOS_TRIALS)]
    return [pool[i] for i in rng.permutation(picks).tolist()]


def paper_recovery(seed: int, smoke: bool) -> list[JobTrial]:
    gb, rounds = (1.0, 1) if smoke else (10.0, 3)
    points = RECOVERY_POINTS[::2] if smoke else RECOVERY_POINTS
    configs = []
    for _ in range(rounds):
        for job, reducers in (("wordcount", 1), ("secondarysort", 10)):
            configs.append((job, gb, reducers, "yarn", None))
            configs.extend((job, gb, reducers, system, p)
                           for system in ("yarn", "sfm", "alm") for p in points)
    return _jobs(seed, configs)


#: Workload name -> ``(seed, smoke) -> trials`` of one sweep.
WORKLOADS = {
    "terasort-testbed": terasort_testbed,
    "shuffle-wide": shuffle_wide,
    "chaos-campaign": chaos_campaign,
    "paper-recovery": paper_recovery,
}


def pinned_trials(workload: str) -> list:
    """Every trial ``expected.json`` pins for ``workload``."""
    if workload == "chaos-campaign":
        return chaos_pool(False)
    return [t for seed in PINNED_SEEDS for t in WORKLOADS[workload](seed, False)]
