"""Fig. 14 — SFM recovery of multiple concurrent ReduceTask failures.

Paper: SFM cuts recovery time by up to 40.7/44.3/49.5% for 1/5/10
concurrent failures, and the improvement grows with the per-reducer
data size (37.2% at 1 GB -> 62.1% at 32 GB under 5 failures).
"""


def test_fig14_concurrent_failures(figure):
    rows = figure("fig14", "Fig. 14 — concurrent-failure recovery, YARN vs SFM")
    # Compute improvement per (size, count).
    by_key = {}
    for r in rows:
        by_key.setdefault((r.per_reducer_gb, r.concurrent_failures), {})[r.system] = r.recovery_time
    gains = {}
    for (gb, k), v in sorted(by_key.items()):
        if v.get("yarn", 0) > 0 and "sfm" in v:
            g = (1.0 - v["sfm"] / v["yarn"]) * 100.0
            gains[(gb, k)] = g
            print(f"{gb:5.1f} GB x {k:2d} failures: SFM recovery gain {g:+.1f}%")
    assert gains
    # SFM wins overall.
    assert sum(gains.values()) / len(gains) > 0
    # Improvement grows with data size (compare smallest vs largest at
    # the middle failure count where both exist).
    counts = sorted({k for _, k in gains})
    mid = counts[len(counts) // 2]
    sizes = sorted({gb for gb, k in gains if k == mid})
    if len(sizes) >= 2:
        assert gains[(sizes[-1], mid)] > gains[(sizes[0], mid)] - 5.0
