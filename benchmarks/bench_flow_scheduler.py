"""Flow-scheduler hot-path throughput: incremental coalescing vs the
eager full-recompute reference (the seed implementation).

The scenario is the simulator's worst case — a shuffle wave: every
reachable node fetches from ``FANIN`` peers at one instant (~4n
concurrent flows on an n-node cluster), sizes staggered so completions
arrive as a long stream of individual rate-change events, plus one
mid-wave node death (the failure-amplification path the paper studies).
The same scenario runs under both schedulers; wave-end and final
simulated times must match exactly — the speedup is only admissible
because the allocations are bit-identical.

Throughput is reported as *model events per wall second* (flow
admissions + completions + cancellations — a scheduler-independent
count of the work the scenario demands), alongside event-heap pushes,
which show the stale-timer traffic the cancellable timer eliminates.

A second sweep scales the *cluster* rather than the wave: the same
bounded shuffle window (128 active nodes) inside clusters of 512 to
10,000 nodes. Model work is constant, so events/sec staying flat is
direct evidence the admission/completion/cancellation hot loops carry
no O(cluster) term — only the once-per-wave reachable scan touches all
nodes.

A third sweep is the *heavy-shuffle* case: one ring component of
window * fanin concurrent flows (3k-8k), completions streaming in, on
clusters of 512 to 10,000 nodes. Every completion's refill touches the
whole component, which is where the columnar scheduler's vectorized
max-min rounds beat the incremental scheduler's per-flow python loop
(acceptance: >=3x events/sec at >=4096 nodes, bit-identical times).

Numbers land in ``BENCH_flows.json`` at the repo root; the acceptance
bar is >=5x events/sec on the 128-node wave and a flat cluster-scaling
curve. ``--smoke`` (script mode, used by CI) runs the 8-node scenario
under reference/incremental/columnar schedulers and asserts exact
agreement without touching the JSON.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.node import MB
from repro.sim.core import Simulator

NODE_COUNTS = [8, 32, 128]
#: Cluster sizes for the fixed-window scaling sweep (default scheduler).
SCALING_NODE_COUNTS = [512, 4096, 10000]
SCALING_WINDOW = 128
FANIN = 4
#: Heavy-shuffle sweep: one large connected component per wave
#: (window * fanin concurrent flows in a ring), so every completion's
#: refill touches thousands of flows — the regime where the columnar
#: scheduler's vectorized max-min rounds beat the scalar loop.
#: (cluster size, shuffle-window size): bigger clusters run bigger
#: waves — the refill component grows with the window, which is where
#: the scalar per-flow loop falls behind the vectorized rounds.
HEAVY_SWEEP = [(512, 384), (4096, 768), (10000, 1024)]
HEAVY_WINDOW = 384
HEAVY_FANIN = 8


def _driver(sim: Simulator, cluster: Cluster, waves: int, kill_wave: int,
            wave_ends: list, window: int | None = None, fanin: int = FANIN):
    for w in range(waves):
        reachable = cluster.reachable_nodes()
        if window is not None:
            reachable = reachable[:window]
        n = len(reachable)
        flows = []
        with cluster.flows.batch():
            for i, dst in enumerate(reachable):
                for k in range(1, fanin + 1):
                    src = reachable[(i + k) % n]
                    if src is dst:
                        continue
                    size = MB * (32 + 16 * ((i * 7 + k * 13 + w * 3) % 8))
                    flows.append(cluster.net_transfer(
                        src, dst, size, name=f"wave{w}:{i}.{k}"))
        if w == kill_wave:
            yield sim.timeout(0.05)
            victim = reachable[n // 2]
            cluster.stop_network(victim)
            flows = [f for f in flows if not f.done.triggered or f.done.ok]
        yield sim.all_of([f.done for f in flows])
        wave_ends.append(sim.now)
    return sim.now


def run_scenario(scheduler: str, nodes: int, waves: int,
                 window: int | None = None, fanin: int = FANIN) -> dict:
    """One full shuffle-wave scenario under the named scheduler."""
    previous = os.environ.get("REPRO_SCHEDULER")
    os.environ["REPRO_SCHEDULER"] = scheduler
    try:
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=nodes, num_racks=2, seed=7))
        wave_ends: list = []
        t0 = time.perf_counter()
        done = sim.process(_driver(sim, cluster, waves, kill_wave=waves // 2,
                                   wave_ends=wave_ends, window=window,
                                   fanin=fanin))
        sim.run(done)
        wall = time.perf_counter() - t0
    finally:
        if previous is None:
            os.environ.pop("REPRO_SCHEDULER", None)
        else:
            os.environ["REPRO_SCHEDULER"] = previous
    stats = dict(cluster.flows.stats)
    model_events = stats["transfers"] + stats["completions"] + stats["cancels"]
    return {
        "finish_time": sim.now,
        "wave_ends": wave_ends,
        "wall_seconds": wall,
        "model_events": model_events,
        "events_per_sec": model_events / max(wall, 1e-9),
        "heap_pushes": sim._seq,
        "stats": stats,
    }


def run_scaling(nodes: int, waves: int = 3, window: int = SCALING_WINDOW) -> dict:
    """Fixed shuffle window inside an ``nodes``-node cluster, default
    (columnar) scheduler: constant model work, growing cluster."""
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=nodes, num_racks=2, seed=7))
    wave_ends: list = []
    t0 = time.perf_counter()
    done = sim.process(_driver(sim, cluster, waves, kill_wave=waves // 2,
                               wave_ends=wave_ends, window=window))
    sim.run(done)
    wall = time.perf_counter() - t0
    stats = cluster.flows.stats
    model_events = stats["transfers"] + stats["completions"] + stats["cancels"]
    return {
        "nodes": nodes,
        "window": window,
        "waves": waves,
        "model_events": model_events,
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(model_events / max(wall, 1e-9), 1),
        "finish_time": round(sim.now, 6),
    }


def heavy_shuffle_row(nodes: int, waves: int = 2, window: int = HEAVY_WINDOW,
                      fanin: int = HEAVY_FANIN) -> dict:
    """Columnar vs incremental on one heavy-shuffle component.

    Exact (==) agreement on end/wave times and event counts is asserted
    — the speedup is only admissible because the columnar scheduler's
    allocations are bit-identical to the scalar ones.
    """
    window = min(window, nodes)
    inc = run_scenario("incremental", nodes, waves, window=window, fanin=fanin)
    col = run_scenario("columnar", nodes, waves, window=window, fanin=fanin)
    assert col["finish_time"] == inc["finish_time"], (nodes, inc, col)
    assert col["wave_ends"] == inc["wave_ends"], (nodes, inc, col)
    assert col["model_events"] == inc["model_events"], (nodes, inc, col)
    return {
        "nodes": nodes,
        "window": window,
        "fanin": fanin,
        "waves": waves,
        "flows": inc["stats"]["transfers"],
        "identical_completion_times": True,
        "incremental": {k: (round(v, 4) if isinstance(v, float) else v)
                        for k, v in inc.items() if k != "wave_ends"},
        "columnar": {k: (round(v, 4) if isinstance(v, float) else v)
                     for k, v in col.items() if k != "wave_ends"},
        "events_per_sec_speedup": round(
            col["events_per_sec"] / max(inc["events_per_sec"], 1e-9), 2),
    }


def compare_schedulers(nodes: int, waves: int) -> dict:
    ref = run_scenario("reference", nodes, waves)
    inc = run_scenario("incremental", nodes, waves)
    # Exact (==) agreement: same simulated end time, same wave-end
    # times, same event counts. No tolerance — the incremental
    # scheduler is only a valid optimisation if it is bit-identical.
    assert inc["finish_time"] == ref["finish_time"], (nodes, ref, inc)
    assert inc["wave_ends"] == ref["wave_ends"], (nodes, ref, inc)
    assert inc["model_events"] == ref["model_events"], (nodes, ref, inc)
    return {
        "nodes": nodes,
        "waves": waves,
        "flows": ref["stats"]["transfers"],
        "identical_completion_times": True,
        "reference": {k: (round(v, 4) if isinstance(v, float) else v)
                      for k, v in ref.items() if k != "wave_ends"},
        "incremental": {k: (round(v, 4) if isinstance(v, float) else v)
                        for k, v in inc.items() if k != "wave_ends"},
        "events_per_sec_speedup": round(
            inc["events_per_sec"] / max(ref["events_per_sec"], 1e-9), 2),
        "heap_push_reduction": round(
            ref["heap_pushes"] / max(inc["heap_pushes"], 1), 2),
    }


def test_flow_scheduler_throughput(report):
    rows = []
    for nodes in NODE_COUNTS:
        waves = 4 if nodes <= 32 else 2
        rows.append(compare_schedulers(nodes, waves))
    scaling = [run_scaling(nodes) for nodes in SCALING_NODE_COUNTS]
    heavy = [heavy_shuffle_row(nodes, window=window)
             for nodes, window in HEAVY_SWEEP]

    payload = {"fanin": FANIN, "sweep": rows, "cluster_scaling": scaling,
               "heavy_shuffle": heavy}
    out = Path(__file__).resolve().parents[1] / "BENCH_flows.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    report("Flow scheduler — incremental/coalesced vs eager reference",
           json.dumps(payload, indent=2))

    # Acceptance: >=5x model-events/sec on the 128-node shuffle wave.
    big = rows[-1]
    assert big["nodes"] == 128
    assert big["events_per_sec_speedup"] >= 5.0, big
    # Constant model work must not slow down with cluster size: an
    # O(cluster) term in the per-flow hot loops would sink events/sec
    # as nodes grow 512 -> 10,000 with the window fixed.
    assert all(row["model_events"] == scaling[0]["model_events"] for row in scaling)
    eps = [row["events_per_sec"] for row in scaling]
    assert min(eps) >= 0.5 * eps[0], scaling
    # Columnar acceptance: >=3x events/sec over the incremental
    # scheduler on the heavy-shuffle component at large cluster sizes.
    for row in heavy:
        if row["nodes"] >= 4096:
            assert row["events_per_sec_speedup"] >= 3.0, row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="8-node equivalence check only (CI); "
                             "no BENCH_flows.json update")
    args = parser.parse_args(argv)
    if args.smoke:
        row = compare_schedulers(nodes=8, waves=3)
        heavy = heavy_shuffle_row(nodes=8, waves=2, window=8, fanin=4)
        print(f"smoke ok: {row['flows']} flows, completion times identical, "
              f"events/sec speedup {row['events_per_sec_speedup']}x; "
              f"columnar identical on {heavy['flows']} heavy-shuffle flows")
        return 0
    for nodes in NODE_COUNTS:
        row = compare_schedulers(nodes, 4 if nodes <= 32 else 2)
        print(json.dumps(row, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
