"""Fig. 2 — delayed execution from a single Map- vs ReduceTask failure.

Paper claim: map failure is negligible; a ReduceTask failure degrades
Terasort/Wordcount by >43.2%/>50.3%, growing with the failure point.
"""


def test_fig02_delayed_execution(figure):
    rows = figure("fig02", "Fig. 2 — job delay from a single task failure")
    for wl in ("terasort", "wordcount"):
        map_deg = max(r.degradation_pct for r in rows
                      if r.workload == wl and r.failure == "maptask")
        red_deg = max(r.degradation_pct for r in rows
                      if r.workload == wl and r.failure == "reducetask")
        print(f"{wl}: worst map degradation {map_deg:.1f}%, "
              f"worst reduce degradation {red_deg:.1f}%")
        assert red_deg > map_deg + 10.0
