"""DES-kernel throughput at cluster scale.

The scenario is the control plane's steady-state diet: a real
:class:`~repro.cluster.cluster.Cluster` with ``n`` nodes, a real
:class:`~repro.yarn.rm.ResourceManager` heartbeating every simulated
second and running its liveness check, a progress sampler recording
cluster series every five seconds, and a mid-run network-loss storm
that takes out 1% of the fleet (declared lost by the RM 70 s later,
exercising periodic shutdown and trace logging).

One periodic stamps every NM heartbeat of an instant, so the kernel
event count does not grow with the node count. Throughput is *NM
heartbeats served per wall second*: ``nodes * horizon /
nm_heartbeat_interval`` divided by the wall time. Kernel events do not
measure the work: one event serves a whole instant's heartbeats.

Numbers land in ``BENCH_kernel.json`` at the repo root. Acceptance:
every repeat of a size gives one digest, and the heartbeats/sec curve
degrades sub-linearly (no O(n^2) cliff). ``--smoke [--nodes N]``
(script mode, used by CI) runs one size twice and checks that both runs
give one digest, without touching the JSON.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.metrics.trace import ProgressSampler, Trace
from repro.sim.core import Simulator
from repro.yarn.rm import ResourceManager, YarnConfig

NODE_COUNTS = [64, 256, 1024, 4096, 10000]
HORIZON = 600.0
SAMPLE_INTERVAL = 5.0
REPEATS = 3
REPEATS_AT_SCALE = 2  # 4096+ nodes: runs are seconds long, noise amortizes


def _cluster_block(sim: Simulator, rm: ResourceManager):
    """Batched sampler probe: live-node count and worst heartbeat lag,
    from one pass over the RM's node managers per tick."""

    def block():
        nms = rm.node_managers.values()
        live = sum(not nm.lost for nm in nms)
        lag = sim.now - min(nm.last_heartbeat for nm in nms)
        return (("live_nodes", live), ("heartbeat_lag", lag))

    return block


def _loss_storm(sim: Simulator, cluster: Cluster, at: float, count: int):
    yield sim.timeout(at)
    for node in cluster.nodes[:count]:
        cluster.stop_network(node)


def run_workload(nodes: int, horizon: float = HORIZON) -> dict:
    """One cluster control-plane run."""
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=nodes))
    trace = Trace(sim)
    # Time the control plane, not cluster construction: RM build
    # (NM allocation + heartbeat registration) counts, node/device
    # object construction does not.
    t0 = time.perf_counter()
    rm = ResourceManager(sim, cluster)
    rm.node_lost_listeners.append(
        lambda node: trace.log("node_lost", node=node.node_id))
    sampler = ProgressSampler(sim, trace, interval=SAMPLE_INTERVAL)
    sampler.add_probe_block(_cluster_block(sim, rm))
    sampler.start()
    sim.process(_loss_storm(sim, cluster, at=horizon / 2,
                            count=max(1, nodes // 100)),
                name="loss-storm")
    sim.run(until=horizon)
    wall = time.perf_counter() - t0
    return {
        "model_events": sim._seq,
        "wall_seconds": wall,
        "digest": trace.digest(),
        "trace_events": trace.total_events(),
        "series_points": sum(len(p) for p in trace.series.values()),
    }


def measure(nodes: int, horizon: float = HORIZON, repeats: int = REPEATS) -> dict:
    """Best of ``repeats`` runs at one size; every repeat must give the
    same digest, trace-event count and series points."""
    runs = [run_workload(nodes, horizon) for _ in range(repeats)]
    outcomes = {(r["digest"], r["trace_events"], r["series_points"]) for r in runs}
    assert len(outcomes) == 1, f"{nodes} nodes is not deterministic: {outcomes}"
    best = min(runs, key=lambda r: r["wall_seconds"])
    # The NM heartbeats of one run (counting the few a lost NM no
    # longer sends).
    heartbeats = nodes * horizon / YarnConfig().nm_heartbeat_interval
    return {
        "nodes": nodes,
        "horizon": horizon,
        "model_events": best["model_events"],
        "wall_seconds": round(best["wall_seconds"], 4),
        "heartbeats_per_sec": round(heartbeats / max(best["wall_seconds"], 1e-9), 1),
        "trace_events": best["trace_events"],
        "series_points": best["series_points"],
    }


def _assert_sublinear(rows: list[dict]) -> None:
    """heartbeats/sec may degrade with cluster size, but slower than
    the node count grows — an O(n^2) hot loop would degrade ~linearly."""
    for prev, cur in zip(rows, rows[1:]):
        node_ratio = cur["nodes"] / prev["nodes"]
        degradation = prev["heartbeats_per_sec"] / max(cur["heartbeats_per_sec"], 1e-9)
        assert degradation <= 0.75 * node_ratio, (
            f"heartbeats/sec degraded {degradation:.2f}x from "
            f"{prev['nodes']} to {cur['nodes']} nodes (ratio {node_ratio:.1f})")


def test_kernel_throughput(report):
    rows = [measure(nodes, repeats=REPEATS if nodes <= 1024 else REPEATS_AT_SCALE)
            for nodes in NODE_COUNTS]

    payload = {
        "horizon": HORIZON,
        "sample_interval": SAMPLE_INTERVAL,
        "repeats": REPEATS,
        "repeats_at_scale": REPEATS_AT_SCALE,
        "heartbeats_per_sec_numerator": "nodes * horizon / nm_heartbeat_interval",
        "sweep": rows,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    report("DES kernel — NM heartbeats/sec by cluster size", json.dumps(payload, indent=2))

    # Acceptance: a sub-linear scaling curve.
    _assert_sublinear(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="two runs at one size must give one digest (CI); "
                             "no BENCH_kernel.json update")
    parser.add_argument("--nodes", type=int, default=32,
                        help="cluster size for --smoke (default 32)")
    args = parser.parse_args(argv)
    if args.smoke:
        row = measure(nodes=args.nodes, horizon=120.0, repeats=2)
        print(f"smoke ok at {args.nodes} nodes (2 runs, one digest): "
              f"{row['model_events']} kernel events, "
              f"{row['heartbeats_per_sec']} heartbeats/sec")
        return 0
    for nodes in NODE_COUNTS:
        print(json.dumps(measure(nodes), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
