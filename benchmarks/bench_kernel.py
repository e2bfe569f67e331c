"""DES-kernel throughput at cluster scale.

The scenario is the control plane's steady-state diet: a real
:class:`~repro.cluster.cluster.Cluster` with ``n`` nodes, a real
:class:`~repro.yarn.rm.ResourceManager` heartbeating every simulated
second and running its liveness check, a progress sampler recording
cluster series every five seconds, and a mid-run network-loss storm
that takes out 1% of the fleet (declared lost by the RM 70 s later,
exercising periodic shutdown and trace logging).

Two kernels run the same workload:

- ``reference``: the pre-overhaul generator kernel
  (``REPRO_KERNEL=reference``) — the original baseline, swept only at
  <= 1024 nodes.
- ``default``: the default kernel: one periodic stamps every NM
  heartbeat of an instant, so the kernel event count does not grow
  with the node count.

Speedups are only admissible because the trace digests are
byte-identical across both kernels — same events, same series, same
ordering. Throughput is *NM heartbeats served per wall second*:
``nodes * horizon / nm_heartbeat_interval`` divided by each kernel's
wall time. Kernel events do not measure the work: one event serves a
whole instant's heartbeats.

Numbers land in ``BENCH_kernel.json`` at the repo root. Acceptance:
identical digests everywhere and a sub-linear heartbeats/sec
degradation curve (no O(n^2) cliff). ``--smoke [--nodes N]`` (script
mode, used by CI) runs a single equivalence check without touching the
JSON.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.metrics.trace import ProgressSampler, Trace
from repro.sim.core import Simulator
from repro.yarn.rm import ResourceManager, YarnConfig

NODE_COUNTS = [64, 256, 1024, 4096, 10000]
#: The generator-kernel baseline is too slow to sweep past this.
REFERENCE_MAX_NODES = 1024
HORIZON = 600.0
SAMPLE_INTERVAL = 5.0
REPEATS = 3
REPEATS_AT_SCALE = 2  # 4096+ nodes: runs are seconds long, noise amortizes

_MODE_ENV = {
    "reference": {"REPRO_KERNEL": "reference"},
    "default": {"REPRO_KERNEL": None},
}


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


def run_workload(mode: str, nodes: int, horizon: float = HORIZON) -> dict:
    """One cluster control-plane run under the named implementation."""
    saved = {key: os.environ.get(key) for key in ("REPRO_KERNEL",)}
    for key, value in _MODE_ENV[mode].items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
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
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return {
        "mode": mode,
        "model_events": sim._seq,
        "wall_seconds": wall,
        "digest": trace.digest(),
        "trace_events": trace.total_events(),
        "series_points": sum(len(p) for p in trace.series.values()),
    }


def _best_of(mode: str, nodes: int, horizon: float, repeats: int) -> dict:
    runs = [run_workload(mode, nodes, horizon) for _ in range(repeats)]
    digests = {r["digest"] for r in runs}
    assert len(digests) == 1, f"{mode} is not deterministic: {digests}"
    return min(runs, key=lambda r: r["wall_seconds"])


def compare_modes(nodes: int, horizon: float = HORIZON,
                  repeats: int = REPEATS, with_reference: bool = True) -> dict:
    modes = ["default"]
    if with_reference and nodes <= REFERENCE_MAX_NODES:
        modes.insert(0, "reference")
    results = {mode: _best_of(mode, nodes, horizon, repeats) for mode in modes}
    default = results["default"]
    # Byte-identical digests: same trace events, same sampled series,
    # same ordering. The speedups are inadmissible without this.
    for mode, res in results.items():
        assert res["digest"] == default["digest"], (nodes, mode, results)
        assert res["trace_events"] == default["trace_events"], (nodes, mode, results)
        assert res["series_points"] == default["series_points"], (nodes, mode, results)
    row = {"nodes": nodes, "horizon": horizon, "identical_digests": True}
    # Common numerator: the NM heartbeats of one run (counting the few
    # a lost NM no longer sends).
    heartbeats = nodes * horizon / YarnConfig().nm_heartbeat_interval
    for mode, res in results.items():
        hps = heartbeats / max(res["wall_seconds"], 1e-9)
        row[mode] = {
            "model_events": res["model_events"],
            "wall_seconds": round(res["wall_seconds"], 4),
            "heartbeats_per_sec": round(hps, 1),
            "trace_events": res["trace_events"],
            "series_points": res["series_points"],
        }
    if "reference" in results:
        row["default_vs_reference_speedup"] = round(
            results["reference"]["wall_seconds"] / max(default["wall_seconds"], 1e-9), 2)
    return row


def _assert_sublinear(rows: list[dict], mode: str) -> None:
    """heartbeats/sec may degrade with cluster size, but slower than
    the node count grows — an O(n^2) hot loop would degrade ~linearly."""
    for prev, cur in zip(rows, rows[1:]):
        if mode not in prev or mode not in cur:
            continue
        node_ratio = cur["nodes"] / prev["nodes"]
        degradation = (prev[mode]["heartbeats_per_sec"]
                       / max(cur[mode]["heartbeats_per_sec"], 1e-9))
        assert degradation <= 0.75 * node_ratio, (
            f"{mode}: heartbeats/sec degraded {degradation:.2f}x from "
            f"{prev['nodes']} to {cur['nodes']} nodes (ratio {node_ratio:.1f})")


def test_kernel_throughput(report):
    rows = [compare_modes(nodes,
                          repeats=REPEATS if nodes <= 1024 else REPEATS_AT_SCALE)
            for nodes in NODE_COUNTS]

    payload = {
        "horizon": HORIZON,
        "sample_interval": SAMPLE_INTERVAL,
        "repeats": REPEATS,
        "repeats_at_scale": REPEATS_AT_SCALE,
        "heartbeats_per_sec_numerator": "nodes * horizon / nm_heartbeat_interval",
        "identical_digests": all(r["identical_digests"] for r in rows),
        "sweep": rows,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    report("DES kernel — default vs reference", json.dumps(payload, indent=2))

    # Acceptance: a sub-linear scaling curve for the default kernel.
    _assert_sublinear(rows, "default")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="single digest-equivalence check (CI); "
                             "no BENCH_kernel.json update")
    parser.add_argument("--nodes", type=int, default=32,
                        help="cluster size for --smoke (default 32)")
    args = parser.parse_args(argv)
    if args.smoke:
        row = compare_modes(nodes=args.nodes, horizon=120.0, repeats=1,
                            with_reference=args.nodes <= 256)
        kernels = "reference/default" if "reference" in row else "default"
        print(f"smoke ok at {args.nodes} nodes ({kernels}): "
              f"{row['default']['model_events']} default kernel events, "
              f"{row['default']['heartbeats_per_sec']} heartbeats/sec")
        return 0
    for nodes in NODE_COUNTS:
        print(json.dumps(compare_modes(nodes), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
