"""Fig. 8 — ALG vs YARN under single transient ReduceTask failures at
10..90% progress, for Terasort / Wordcount / Secondarysort.

Paper: ALG outperforms YARN by 15.4/20.1/15.9% on average, up to
28.9/40.8/31.3% at the 90% point, and stays close to failure-free.
"""

from repro.experiments.fig08_alg import mean_improvement


def test_fig08_alg_task_failure(figure):
    rows = figure("fig08", "Fig. 8 — ALG vs YARN, single ReduceTask failure")
    paper_mean = {"terasort": 15.4, "wordcount": 20.1, "secondarysort": 15.9}
    for wl in ("terasort", "wordcount", "secondarysort"):
        gain = mean_improvement(rows, wl)
        print(f"{wl}: mean ALG improvement {gain:.1f}% (paper: {paper_mean[wl]}%)")
        assert gain > 0.0, f"ALG should beat YARN on {wl}"

    # ALG stays close to failure-free at the worst point.
    for wl in ("terasort", "wordcount", "secondarysort"):
        base = next(r.job_time for r in rows
                    if r.workload == wl and r.system == "failure-free")
        worst_alg = max(r.job_time for r in rows
                        if r.workload == wl and r.system == "alg")
        print(f"{wl}: worst ALG vs failure-free +{(worst_alg/base-1)*100:.1f}%")
