"""Fig. 4 — one node failure infects healthy ReduceTasks (stock YARN).

Paper: a single node crash (hosting MOFs, no ReduceTasks) at 176 s
causes 6 additional failures among the 20 healthy ReduceTasks.
"""


def test_fig04_spatial_amplification(figure):
    res = figure("fig04", "Fig. 4 — spatial amplification (stock YARN)")
    print("paper: 6 additional failures")
    assert res.additional_failures >= 1, "expected infected healthy reducers"
