"""Fig. 9 — SFM vs YARN under a node failure at varying reduce-phase
points, for the three benchmarks.

Paper: SFM shortens migration+recovery by 10.9/39.4/18.8% on average
(Terasort/Wordcount/Secondarysort); Wordcount with an early failure can
even beat the failure-free run.
"""

from repro.experiments.fig08_alg import mean_improvement


def test_fig09_sfm_node_failure(figure):
    rows = figure("fig09", "Fig. 9 — SFM vs YARN, node failure in reduce phase")
    paper_mean = {"terasort": 10.9, "wordcount": 39.4, "secondarysort": 18.8}
    for wl in paper_mean:
        mean_gain = mean_improvement(rows, wl, system="sfm")
        print(f"{wl}: mean SFM improvement {mean_gain:.1f}% (paper: {paper_mean[wl]}%)")
        assert mean_gain > 0.0
