"""Golden trace-digest pins for the verification scenario corpus.

These tests replace the old CI-only shell steps ("kernel-swap digest
equivalence" / "scheduler-swap digest equivalence") with pytest-native
pins: a plain ``pytest`` run now catches a digest drift locally, before
CI, and the failure message says how to move the pin deliberately
(``python -m repro verify --refresh-golden``).

The pins are stronger than the old swap steps: each scenario's digest
is compared against the checked-in golden value under the default and
the reference flow scheduler, so a drift in either is caught — not just
a disagreement between the two. The whole corpus runs in well under a
second, so every scenario is pinned in tier 1.
"""

import pytest

from repro.verify import load_golden, run_verify_spec, scenario_spec
from repro.verify.scenarios import SCENARIOS

#: The swap pins run on one representative faulted scenario each.
_PIN_SCENARIO = "oom-reduce-yarn"


def _golden(name: str) -> str:
    golden = load_golden()
    assert name in golden, (
        f"scenario {name!r} has no golden digest in tests/golden/; run "
        "`python -m repro verify --refresh-golden` and commit the result"
    )
    return golden[name]


def _assert_pinned(name: str, digest: str, mode: str) -> None:
    assert digest == _golden(name), (
        f"scenario {name!r} trace digest drifted ({mode}). If this change "
        "is intentional, run `python -m repro verify --refresh-golden` "
        "and commit the updated tests/golden/scenarios.json"
    )


class TestGoldenQuick:
    """One case per representative scenario (clean, crash, OOM, AM
    restart), so a drift there names its scenario in the test id."""

    @pytest.mark.parametrize("name", ["am-restart-log-yarn", "clean-terasort-yarn",
                                      "crash-reducer-sfm", "oom-reduce-yarn"])
    def test_quick_scenario_matches_golden(self, name):
        payload = run_verify_spec(scenario_spec(name))
        assert payload["invariant_violations"] == []
        _assert_pinned(name, payload["digest"], "default implementations")


class TestSwapPins:
    """The ported PIN step: the reference scheduler must reproduce the
    golden digest byte-for-byte."""

    def test_reference_scheduler_matches_golden(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "reference")
        payload = run_verify_spec(scenario_spec(_PIN_SCENARIO))
        _assert_pinned(_PIN_SCENARIO, payload["digest"],
                       "REPRO_SCHEDULER=reference")


class TestGoldenFullCorpus:
    """Every scenario in the corpus matches its golden digest, and no
    golden entry is stale (names a scenario that no longer exists)."""

    def test_full_corpus_matches_golden(self):
        for name in SCENARIOS:
            payload = run_verify_spec(scenario_spec(name))
            assert payload["invariant_violations"] == [], name
            _assert_pinned(name, payload["digest"], "default implementations")

    def test_no_stale_golden_entries(self):
        stale = set(load_golden()) - set(SCENARIOS)
        assert not stale, (
            f"golden file pins scenarios that no longer exist: {sorted(stale)}; "
            "run `python -m repro verify --refresh-golden`"
        )
