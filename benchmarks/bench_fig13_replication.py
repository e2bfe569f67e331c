"""Fig. 13 — impact of ALG's replication level on the reduce stage.

Paper: rack-level replication delays the reduce phase ~18.4% at 320 GB;
cluster-level replication ~55.7%.
"""


def test_fig13_replication_levels(figure):
    rows = figure("fig13", "Fig. 13 — ALG replication level vs reduce-stage time")
    by_gb = {}
    for r in rows:
        by_gb.setdefault(r.input_gb, {})[r.level] = r.reduce_phase_time
    biggest = max(by_gb)
    v = by_gb[biggest]
    rack_pct = (v["rack"] / v["node"] - 1.0) * 100.0
    cluster_pct = (v["cluster"] / v["node"] - 1.0) * 100.0
    print(f"at {biggest:.0f} GB: rack +{rack_pct:.1f}% (paper: +18.4%), "
          f"cluster +{cluster_pct:.1f}% (paper: +55.7%)")
    # Ordering must hold: cluster > rack >= node.
    assert cluster_pct > rack_pct
    assert cluster_pct > 5.0
    # Rack-level overhead grows with data size (small at small inputs).
    smallest = min(by_gb)
    small_rack_pct = (by_gb[smallest]["rack"] / by_gb[smallest]["node"] - 1.0) * 100.0
    assert rack_pct >= small_rack_pct - 2.0
