"""Fig. 15 — benefits of enabling both ALG and SFM.

Paper: SFM+ALG further accelerates recovery vs SFM-only by 11.4%
(Terasort), 16.1% (Wordcount) and 25.8% (Secondarysort) — biggest for
Secondarysort because its logged reduce progress is the most expensive
to recompute.
"""

from repro.experiments.fig15_combined import further_improvement


def test_fig15_sfm_plus_alg(figure):
    rows = figure("fig15", "Fig. 15 — SFM-only vs SFM+ALG recovery")
    paper = {"terasort": 11.4, "wordcount": 16.1, "secondarysort": 25.8}
    gains = further_improvement(rows)
    for wl, pct in gains.items():
        print(f"{wl}: SFM+ALG further improvement {pct:+.1f}% (paper: {paper[wl]}%)")
    # The combined framework should not be slower anywhere, and must
    # show a clear benefit for at least the CPU-heavy workloads.
    assert all(pct >= -3.0 for pct in gains.values())
    assert max(gains.values()) > 3.0
