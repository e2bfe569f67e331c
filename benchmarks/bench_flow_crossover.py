"""Where the columnar flow scheduler starts to beat the incremental one.

``repro.cluster.cluster.COLUMNAR_FLOW_MIN_NODES`` picks the flow
scheduler from the cluster's size. This script measures the crossover
it encodes: Terasort 10 GB shaped like the end-to-end benchmark's
``shuffle-wide`` workload (reducers = nodes/4, 32 nodes per rack, YARN,
fault-free and with the reducer's node failing at 50%), timed under both
forced schedulers at each cluster size. The two schedulers run each job
back to back, and their digests must match. The row reports the median
seconds of ``--repeats`` runs of the pair of jobs, each repeat's
incremental/columnar ratio, its median, and how many repeats columnar
won. Seconds are reference seconds (``benchmarks/e2e/hostspeed.py``):
host seconds rescaled by how fast the host runs a fixed probe at that
moment, so a slow stretch of a shared host does not flip a row.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_flow_crossover.py [--nodes 32 64 128]
"""

import argparse
import json
import os
import statistics
import sys
from functools import partial
from pathlib import Path

from repro.cluster import ClusterSpec
from repro.experiments.common import ExperimentConfig, run_benchmark_trial
from repro.faults import kill_node_at_progress
from repro.workloads import BENCHMARKS

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from hostspeed import ReferenceClock  # noqa: E402

SCHEDULERS = ("incremental", "columnar")
INPUT_GB = 10.0
SEED = 2015
#: The pair of jobs: fault-free, and the reducer's node failing at 50%.
FAULTS = (None, partial(kill_node_at_progress, 0.5, target="reducer"))
CLOCK = ReferenceClock()


def run_job(scheduler: str, nodes: int, fault) -> tuple[float, str]:
    """Reference seconds and digest of one job under ``scheduler``."""
    os.environ["REPRO_SCHEDULER"] = scheduler
    config = ExperimentConfig(cluster=ClusterSpec(num_nodes=nodes,
                                                  num_racks=max(1, nodes // 32)))
    workload = BENCHMARKS["terasort"](INPUT_GB, num_reducers=nodes // 4)
    t0 = CLOCK()
    payload = run_benchmark_trial(SEED, workload, "yarn", fault,
                                  base_config=config, job_name=f"crossover-{nodes}")
    return CLOCK() - t0, payload["digest"]


def crossover_row(nodes: int, repeats: int) -> dict:
    walls: dict[str, list[float]] = {name: [] for name in SCHEDULERS}
    for _ in range(repeats):
        pair = dict.fromkeys(SCHEDULERS, 0.0)
        for k, fault in enumerate(FAULTS):
            # Both schedulers run each job back to back, first one then
            # the other, so host drift within a pair hits both alike.
            digests = {}
            for name in SCHEDULERS[::-1] if k % 2 else SCHEDULERS:
                wall, digests[name] = run_job(name, nodes, fault)
                pair[name] += wall
            assert digests["incremental"] == digests["columnar"], (nodes, k, digests)
        for name in SCHEDULERS:
            walls[name].append(pair[name])
    row = {"nodes": nodes, "reducers": nodes // 4}
    row.update({f"{name}_s": round(statistics.median(walls[name]), 3)
                for name in SCHEDULERS})
    # Incremental over columnar seconds of each repeat's pair of jobs.
    speedups = [i / c for i, c in zip(walls["incremental"], walls["columnar"])]
    row["columnar_speedup"] = round(statistics.median(speedups), 2)
    row["repeat_speedups"] = [round(s, 2) for s in speedups]
    row["columnar_wins"] = sum(s > 1.0 for s in speedups)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    previous = os.environ.get("REPRO_SCHEDULER")
    CLOCK.start()
    try:
        for nodes in args.nodes:
            print(json.dumps(crossover_row(nodes, args.repeats)), flush=True)
    finally:
        CLOCK.stop()
        if previous is None:
            os.environ.pop("REPRO_SCHEDULER", None)
        else:
            os.environ["REPRO_SCHEDULER"] = previous
    return 0


if __name__ == "__main__":
    sys.exit(main())
