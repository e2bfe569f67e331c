"""Where the columnar flow scheduler starts to beat the incremental one.

``repro.cluster.cluster.COLUMNAR_FLOW_MIN_NODES`` picks the flow
scheduler from the cluster's size. This script measures the crossover
it encodes: Terasort 10 GB shaped like the end-to-end benchmark's
``shuffle-wide`` workload (reducers = nodes/4, 32 nodes per rack, YARN,
fault-free and with the reducer's node failing at 50%), timed under both
forced schedulers at each cluster size. Digests must match between the
two schedulers; the row reports the median wall seconds of ``--repeats``
runs of the pair of jobs and how many of those runs columnar won.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_flow_crossover.py [--nodes 32 64 128]
"""

import argparse
import json
import os
import statistics
import sys
import time
from functools import partial

from repro.cluster import ClusterSpec
from repro.experiments.common import ExperimentConfig, run_benchmark_trial
from repro.faults import kill_node_at_progress
from repro.workloads import BENCHMARKS

SCHEDULERS = ("incremental", "columnar")
INPUT_GB = 10.0
SEED = 2015


def run_pair(scheduler: str, nodes: int) -> tuple[float, list[str]]:
    """Wall seconds and digests of the fault-free and the crash job."""
    os.environ["REPRO_SCHEDULER"] = scheduler
    config = ExperimentConfig(cluster=ClusterSpec(num_nodes=nodes,
                                                  num_racks=max(1, nodes // 32)))
    workload = BENCHMARKS["terasort"](INPUT_GB, num_reducers=nodes // 4)
    digests = []
    t0 = time.perf_counter()
    for fault in (None, partial(kill_node_at_progress, 0.5, target="reducer")):
        payload = run_benchmark_trial(SEED, workload, "yarn", fault,
                                      base_config=config, job_name=f"crossover-{nodes}")
        digests.append(payload["digest"])
    return time.perf_counter() - t0, digests


def crossover_row(nodes: int, repeats: int) -> dict:
    walls: dict[str, list[float]] = {name: [] for name in SCHEDULERS}
    digests = {}
    for _ in range(repeats):
        for name in SCHEDULERS:  # interleaved, so host drift hits both
            wall, digests[name] = run_pair(name, nodes)
            walls[name].append(wall)
    assert digests["incremental"] == digests["columnar"], (nodes, digests)
    row = {"nodes": nodes, "reducers": nodes // 4}
    row.update({f"{name}_s": round(statistics.median(walls[name]), 3)
                for name in SCHEDULERS})
    row["columnar_speedup"] = round(row["incremental_s"] / row["columnar_s"], 2)
    # Repeats in which columnar beat incremental on the same pair.
    row["columnar_wins"] = sum(c < i for i, c in zip(*walls.values()))
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    previous = os.environ.get("REPRO_SCHEDULER")
    try:
        for nodes in args.nodes:
            print(json.dumps(crossover_row(nodes, args.repeats)), flush=True)
    finally:
        if previous is None:
            os.environ.pop("REPRO_SCHEDULER", None)
        else:
            os.environ["REPRO_SCHEDULER"] = previous
    return 0


if __name__ == "__main__":
    sys.exit(main())
