"""Fig. 3 — temporal repetition of a ReduceTask failure under stock YARN.

Paper timeline: crash at 48 s; detection after the ~70 s liveness
timeout; recovery launches at 129 s; the recovered ReduceTask is
declared failed a second time at ~180 s (51 s later).
"""


def test_fig03_temporal_amplification(figure):
    res = figure("fig03", "Fig. 3 — temporal amplification timeline (stock YARN)")
    print(f"detection delay {res.detection_delay:.1f} s (paper: ~70 s), "
          f"second-failure delay {res.second_failure_delay:.1f} s (paper: ~51 s)")
    # Temporal amplification: at least one repeated failure of the
    # recovered ReduceTask, arriving well after the stall window.
    assert len(res.repeat_failure_times) >= 1
    assert 60.0 <= res.detection_delay <= 75.0
    assert res.second_failure_delay > 20.0
