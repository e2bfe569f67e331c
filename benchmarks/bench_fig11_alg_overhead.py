"""Fig. 11 — ALG overhead on failure-free runs (Terasort 10..320 GB).

Paper: negligible penalty at every size.
"""

from repro.experiments.fig11_overhead import overhead_pct


def test_fig11_alg_overhead(figure):
    rows = figure("fig11", "Fig. 11 — ALG failure-free overhead")
    over = overhead_pct(rows)
    for gb, pct in sorted(over.items()):
        print(f"{gb:.0f} GB: ALG overhead {pct:+.1f}% (paper: ~0%)")
        # "Negligible": small in either direction (ALG's rack-local
        # output pipeline can even come out marginally ahead of the
        # default cross-rack placement).
        assert -10.0 < pct < 8.0, f"ALG overhead not negligible at {gb} GB"
