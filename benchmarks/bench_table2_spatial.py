"""Table II — speculative recovery scheduling curbs infectious node
failures.

Paper rows (Terasort, 20 reducers):
  YARN @10/20/30%: 2/5/3 additional failures, 429/533/516 s
  SFM  @10/20/30%: 0/0/0 additional failures, 435/449/445 s
"""


def test_table2_spatial_recovery(figure):
    rows = figure("table2", "Table II — spatial amplification, YARN vs SFM")
    print("paper: YARN 2/5/3 additional failures (429/533/516 s), "
          "SFM 0/0/0 (435/449/445 s)")
    # SFM: zero additional failures at every point.
    for r in rows:
        if r.system == "SFM":
            assert r.additional_failures == 0
    # YARN: amplification visible somewhere in the sweep.
    assert sum(r.additional_failures for r in rows if r.system == "YARN") >= 1
    # SFM never slower than YARN when YARN amplified.
    for p in (0.1, 0.2, 0.3):
        y = next(r for r in rows if r.system == "YARN" and r.first_failure_point == p)
        s = next(r for r in rows if r.system == "SFM" and r.first_failure_point == p)
        if y.additional_failures > 0:
            assert s.execution_time <= y.execution_time
