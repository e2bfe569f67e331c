"""Fig. 12 — ALG performance across logging frequencies (Terasort).

Paper: performance is fairly stable across frequencies; more frequent
logging means less analytics progress to persist per tick.
"""


def test_fig12_log_frequency(figure):
    rows = figure("fig12", "Fig. 12 — ALG at different logging frequencies")
    times = [r.job_time for r in rows]
    spread = (max(times) / min(times) - 1.0) * 100.0
    print(f"spread across frequencies: {spread:.1f}% (paper: 'fairly stable')")
    assert spread < 15.0
    # More frequent logging -> more ticks.
    assert rows[0].log_ticks >= rows[-1].log_ticks
