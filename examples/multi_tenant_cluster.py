#!/usr/bin/env python
"""Multi-tenant cluster: three jobs share 20 workers while a node dies.

A Terasort, a Wordcount and a Secondarysort are submitted minutes
apart; mid-run, a node hosting Terasort data stops responding. The
Terasort runs under stock YARN recovery, the others under ALM — so the
same shared failure is handled both ways side by side.

    python examples/multi_tenant_cluster.py
"""

from repro.alm import ALMPolicy
from repro.faults import kill_node_at_progress
from repro.mapreduce.multijob import SharedCluster
from repro.metrics import failure_timeline
from repro.workloads import secondarysort, terasort, wordcount


def main() -> None:
    sc = SharedCluster()

    ts = sc.submit(terasort(50.0), job_name="terasort-yarn")
    sc.submit(wordcount(5.0), job_name="wordcount-alm",
              policy=ALMPolicy(), delay=30.0)
    sc.submit(secondarysort(5.0), job_name="secondarysort-alm",
              policy=ALMPolicy(), delay=60.0)

    # The node failure triggers off the Terasort's reduce progress.
    kill_node_at_progress(0.3, target="map-only").install(ts)

    results = sc.run_all()

    print(f"{'job':22s} {'policy':6s} {'start':>7s} {'end':>8s} "
          f"{'elapsed':>8s} {'red.fails':>9s}")
    for r in results:
        print(f"{r.job_name:22s} {r.policy:6s} {r.start_time:7.1f} "
              f"{r.end_time:8.1f} {r.elapsed:8.1f} "
              f"{r.counters['failed_reduce_attempts']:9d}")

    print("\n--- Terasort (stock YARN) under the node failure ---")
    print(failure_timeline(results[0].trace))


if __name__ == "__main__":
    main()
