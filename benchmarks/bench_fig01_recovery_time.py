"""Fig. 1 — recovery time: 1 ReduceTask failure vs N MapTask failures.

Paper claim: recovering from a single ReduceTask failure takes an order
of magnitude longer than recovering from the failure of 200 MapTasks.
"""

def test_fig01_recovery_time(figure):
    # Always at the paper's input size: the reduce-vs-map recovery gap
    # is what this figure is about, and it shrinks at toy scales where
    # a reducer redoes only seconds of work.
    rows = figure("fig01", "Fig. 1 — recovery time vs failure type",
                  scale=1.0, reduce_failure_progress=0.9)
    reduce_rec = next(r for r in rows if r.failure == "reducetask").recovery_time
    map_recs = [r.recovery_time for r in rows if r.failure == "maptasks"]
    print(f"\nreduce recovery = {reduce_rec:.1f}s vs worst map recovery = "
          f"{max(map_recs):.1f}s ({reduce_rec / max(max(map_recs), 1e-9):.1f}x)")
    # Paper shape: one reduce failure costs several times the recovery
    # of even the largest map-failure wave (the paper reports an order
    # of magnitude on their testbed), and map recovery stays roughly
    # flat in the wave size because re-runs execute in parallel.
    assert reduce_rec > 1.5 * max(map_recs)
    assert max(map_recs) < 3 * max(min(map_recs), 1.0)
