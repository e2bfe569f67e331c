"""DES-kernel throughput at cluster scale, in two tables.

**NM heartbeats.** The scenario is the control plane's steady-state
diet: a real :class:`~repro.cluster.cluster.Cluster` with ``n`` nodes, a real
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

**Process steps.** ``n`` attempt-like processes each take guarded
waits, ``yield sim.any_of([sim.timeout(d), killed])`` as a task attempt
races every wait against its container's kill event, with ``d`` drawn
from a few values so most resumes share an instant with others. A
reaper fails 1% of the kill events mid-run. Throughput is *process
steps per wall second*: resumes of the processes divided by the wall
time. This is the kernel's dispatch path (event construction, heap
push and pop, condition checks, generator resumes) with no model code.

Numbers land in ``BENCH_kernel.json`` at the repo root. Acceptance:
every repeat of a size gives one digest, and neither curve degrades
faster than sub-linearly with size (no O(n^2) cliff). ``--smoke [--nodes
N]`` (script mode, used by CI) runs both tables at one size (``N`` nodes,
``N`` processes) twice each and checks that both runs give one digest,
without touching the JSON.
"""

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.metrics.trace import ProgressSampler, Trace
from repro.sim.core import Simulator, SimulationError
from repro.yarn.rm import ResourceManager, YarnConfig

NODE_COUNTS = [64, 256, 1024, 4096, 10000]
HORIZON = 600.0
SAMPLE_INTERVAL = 5.0
REPEATS = 3
REPEATS_AT_SCALE = 2  # 4096+ nodes: runs are seconds long, noise amortizes

PROCESS_COUNTS = [64, 256, 1024, 4096]
STEP_HORIZON = 120.0
STEP_DELAYS = (0.5, 1.0, 1.5, 2.0)


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


def run_steps(processes: int, horizon: float = STEP_HORIZON) -> dict:
    """``processes`` attempt-like processes taking guarded waits until
    ``horizon``; the digest covers every process's step count, end time
    and outcome."""
    sim = Simulator()
    rng = random.Random(processes)
    kills = [sim.event() for _ in range(processes)]
    outcomes = [None] * processes

    def attempt(i, killed):
        delays = [rng.choice(STEP_DELAYS) for _ in range(8)]
        steps = 0
        try:
            while sim.now < horizon:
                yield sim.any_of([sim.timeout(delays[steps % 8]), killed])
                steps += 1
        except SimulationError:
            outcomes[i] = (steps, sim.now, "killed")
            return
        outcomes[i] = (steps, sim.now, "done")

    def reaper():
        yield sim.timeout(horizon / 2)
        for i in rng.sample(range(processes), max(1, processes // 100)):
            kills[i].fail(SimulationError(f"attempt {i} killed"))

    t0 = time.perf_counter()
    for i, killed in enumerate(kills):
        sim.process(attempt(i, killed), name=f"attempt-{i}")
    sim.process(reaper(), name="reaper")
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "model_events": sim._seq,
        "wall_seconds": wall,
        "steps": sum(steps for steps, _, _ in outcomes),
        "digest": hashlib.sha256(repr(outcomes).encode()).hexdigest(),
    }


def measure_steps(processes: int, horizon: float = STEP_HORIZON,
                  repeats: int = REPEATS) -> dict:
    """Best of ``repeats`` runs at one size; every repeat must give the
    same digest."""
    runs = [run_steps(processes, horizon) for _ in range(repeats)]
    digests = {r["digest"] for r in runs}
    assert len(digests) == 1, f"{processes} processes is not deterministic: {digests}"
    best = min(runs, key=lambda r: r["wall_seconds"])
    return {
        "processes": processes,
        "horizon": horizon,
        "model_events": best["model_events"],
        "steps": best["steps"],
        "wall_seconds": round(best["wall_seconds"], 4),
        "steps_per_sec": round(best["steps"] / max(best["wall_seconds"], 1e-9), 1),
    }


def _assert_sublinear(rows: list[dict], size: str, rate: str) -> None:
    """``rate`` may degrade with ``size``, but slower than the size
    grows — an O(n^2) hot loop would degrade ~linearly."""
    for prev, cur in zip(rows, rows[1:]):
        size_ratio = cur[size] / prev[size]
        degradation = prev[rate] / max(cur[rate], 1e-9)
        assert degradation <= 0.75 * size_ratio, (
            f"{rate} degraded {degradation:.2f}x from "
            f"{prev[size]} to {cur[size]} {size} (ratio {size_ratio:.1f})")


def test_kernel_throughput(report):
    rows = [measure(nodes, repeats=REPEATS if nodes <= 1024 else REPEATS_AT_SCALE)
            for nodes in NODE_COUNTS]
    step_rows = [measure_steps(n) for n in PROCESS_COUNTS]

    payload = {
        "horizon": HORIZON,
        "sample_interval": SAMPLE_INTERVAL,
        "repeats": REPEATS,
        "repeats_at_scale": REPEATS_AT_SCALE,
        "heartbeats_per_sec_numerator": "nodes * horizon / nm_heartbeat_interval",
        "sweep": rows,
        "step_horizon": STEP_HORIZON,
        "step_delays": list(STEP_DELAYS),
        "steps_per_sec_numerator": "guarded-wait resumes of the attempt processes",
        "process_steps": step_rows,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    report("DES kernel — NM heartbeats/sec by cluster size and process "
           "steps/sec by process count", json.dumps(payload, indent=2))

    # Acceptance: sub-linear scaling curves.
    _assert_sublinear(rows, "nodes", "heartbeats_per_sec")
    _assert_sublinear(step_rows, "processes", "steps_per_sec")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="two runs of each table at one size must give one "
                             "digest (CI); no BENCH_kernel.json update")
    parser.add_argument("--nodes", type=int, default=32,
                        help="cluster size and process count for --smoke (default 32)")
    args = parser.parse_args(argv)
    if args.smoke:
        row = measure(nodes=args.nodes, horizon=120.0, repeats=2)
        print(f"smoke ok at {args.nodes} nodes (2 runs, one digest): "
              f"{row['model_events']} kernel events, "
              f"{row['heartbeats_per_sec']} heartbeats/sec")
        row = measure_steps(args.nodes, repeats=2)
        print(f"smoke ok at {args.nodes} processes (2 runs, one digest): "
              f"{row['steps']} process steps, {row['steps_per_sec']} steps/sec")
        return 0
    for nodes in NODE_COUNTS:
        print(json.dumps(measure(nodes), indent=2))
    for processes in PROCESS_COUNTS:
        print(json.dumps(measure_steps(processes), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
