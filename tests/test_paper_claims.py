"""The paper-shape gate: each ``EXPERIMENTS`` row's ``claims`` and the
paper layer of ``repro verify``, which runs every row at scale 1.0 and
fails on a claim that does not hold or an owned deviation that starts to."""

import pytest

from repro import cli
from repro.experiments import EXPERIMENTS, Claim


def test_every_experiment_row_has_callable_claims():
    for name, (driver, render, claims) in EXPERIMENTS.items():
        assert callable(driver) and callable(render) and callable(claims), name


@pytest.mark.parametrize("name", ["fig03", "fig04", "fig10", "table2", "motivation"])
def test_cheap_rows_hold_their_claims_at_full_scale(name):
    """The five rows that cost about 4 s together at scale 1.0; the
    whole gate (~67 s serial) runs in CI's verify job."""
    driver, _render, claims = EXPERIMENTS[name]
    result = claims(driver(scale=1.0))
    assert result
    assert [(c.name, c.status) for c in result] == [(c.name, "PASS") for c in result]


def _gate(monkeypatch, capsys, *claims):
    row = (lambda scale: scale, lambda result: f"rendered at {result}",
           lambda result: list(claims))
    monkeypatch.setattr("repro.cli.EXPERIMENTS", {"fake": row})
    failed = cli._check_paper_claims(1)
    return failed, capsys.readouterr().out


@pytest.mark.parametrize("claim, line", [
    (Claim("gain_pct", 2.5, lo=3.0),
     "FAIL fake/gain_pct value=2.5 bound=[3, inf]"),
    (Claim("extra_failures", 0, hi=0, owner="ROADMAP item 12"),
     "XPASS fake/extra_failures value=0 bound=[-inf, 0] owner=ROADMAP item 12"),
], ids=["fail", "xpass"])
def test_a_fail_or_an_xpass_fails_the_gate(claim, line, monkeypatch, capsys):
    failed, out = _gate(monkeypatch, capsys, Claim("holds", 1.0, lo=0.0, hi=1.0), claim)
    assert failed == 1
    assert "rendered at 1.0" in out
    assert "  PASS fake/holds value=1 bound=[0, 1]" in out
    assert f"  {line}\n" in out
    assert "1 of 2 claims FAIL or XPASS" in out


def test_an_owned_deviation_alone_passes_the_gate(monkeypatch, capsys):
    failed, out = _gate(monkeypatch, capsys,
                        Claim("ratio", -11.4, lo=15.0, owner="ROADMAP item 12"))
    assert failed == 0
    assert "  XFAIL fake/ratio value=-11.4 bound=[15, inf] owner=ROADMAP item 12\n" in out
    assert "0 of 1 claims FAIL or XPASS" in out


def test_a_raising_row_is_one_failure_and_the_other_rows_still_print(monkeypatch, capsys):
    def boom(scale):
        raise ZeroDivisionError("no recovery to compare")

    def fine(scale):
        return scale

    monkeypatch.setattr("repro.cli.EXPERIMENTS", {
        "before": (fine, lambda result: "before rendered",
                   lambda result: [Claim("holds", 1.0, lo=0.0)]),
        "broken": (boom, lambda result: "never rendered", lambda result: []),
        "after": (fine, lambda result: "after rendered",
                  lambda result: [Claim("holds", 1.0, lo=0.0)]),
    })
    assert cli._check_paper_claims(1) == 1
    out = capsys.readouterr().out
    assert "  ERROR broken: ZeroDivisionError: no recovery to compare\n" in out
    assert "never rendered" not in out
    assert out.index("before rendered") < out.index("ERROR broken") < out.index("after rendered")
    assert "  PASS after/holds value=1 bound=[0, inf]\n" in out
    assert "  0 of 2 claims FAIL or XPASS\n  1 of 3 rows ERROR\n" in out


def test_a_recovery_of_zero_fails_the_gain_claims_instead_of_raising():
    """When no fault fires the drivers report 0 s of recovery; the gains
    over it are NaN, which no bound admits, so the gate names the claims."""
    from repro.experiments.fig14_concurrent import Fig14Row
    from repro.experiments.fig15_combined import Fig15Row

    fig14 = [Fig14Row(gb, 1, system, 100.0, 0.0 if gb == 1.0 else 10.0)
             for gb in (1.0, 2.0) for system in ("yarn", "sfm")]
    fig15 = [Fig15Row(wl, system, 100.0, 0.0 if wl == "wordcount" else 10.0)
             for wl in ("terasort", "wordcount") for system in ("sfm", "alm")]
    statuses = {c.name: c.status for c in EXPERIMENTS["fig14"][2](fig14)
                + EXPERIMENTS["fig15"][2](fig15)}
    assert statuses["mean_gain_pct"] == "FAIL"
    assert statuses["gain_pct_growth_smallest_to_largest"] == "FAIL"
    assert statuses["least_gain_pct"] == "FAIL"
    assert statuses["largest_gain_pct"] == "FAIL"
