"""The greedy drop-one-fault minimizer, regression-tested against the
checked-in reproducers for the three bugs the PR-3 chaos campaign found.

Those bugs are fixed, so their schedules can no longer drive the
minimizer through real invariant violations. The tests split the two
halves apart:

- *Replay-clean*: every reproducer's full spec runs violation-free and
  actually fires its faults — the fixes hold, and the scenarios have
  not rotted into no-ops.
- *Convergence*: with a synthetic oracle ("the culprit fault is still
  in the schedule"), the minimizer drops every decoy and converges to
  exactly the 1-fault reproducer recorded in the JSON.
- *Replay-identical*: each full spec and each ``minimized_faults`` spec
  replays to the trace digest pinned in ``tests/golden/reproducers.json``.
"""

import json
from pathlib import Path

import pytest

from repro.faults.chaos import minimize_spec, run_trial_spec

REPRODUCERS = sorted((Path(__file__).parent / "reproducers").glob("*.json"))
#: Trace digest of each reproducer's full spec and of its spec cut down
#: to ``minimized_faults``.
REPLAY_GOLDEN = Path(__file__).parent / "golden" / "reproducers.json"


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


@pytest.mark.parametrize("path", REPRODUCERS, ids=lambda p: p.stem)
class TestReproducers:
    def test_replays_clean_and_fires(self, path):
        repro = _load(path)
        payload = run_trial_spec(repro["spec"])
        assert payload["violations"] == [], (
            f"{path.stem}: the bug fixed in {repro['fixed_in']} is back")
        assert payload["success"]
        assert payload["faults_fired"] >= 1

    def test_minimizer_converges_to_recorded_culprit(self, path):
        repro = _load(path)
        (culprit,) = repro["minimized_faults"]
        assert culprit in repro["spec"]["faults"]
        n_faults = len(repro["spec"]["faults"])

        runs = []

        def culprit_still_scheduled(candidate):
            runs.append(len(candidate["faults"]))
            return culprit in candidate["faults"]

        minimized = minimize_spec(repro["spec"],
                                  violates=culprit_still_scheduled)
        assert minimized["faults"] == [culprit]
        # Greedy drop-one: bounded by n^2 runs, not exhaustive.
        assert len(runs) <= n_faults * n_faults
        # The input spec is untouched (minimize returns a new dict).
        assert len(repro["spec"]["faults"]) == n_faults


@pytest.mark.parametrize("path", REPRODUCERS, ids=lambda p: p.stem)
def test_reproducer_replays_byte_identically(path):
    repro = _load(path)
    golden = _load(REPLAY_GOLDEN)[path.stem]
    minimized = dict(repro["spec"], faults=repro["minimized_faults"])
    assert run_trial_spec(repro["spec"])["digest"] == golden["spec"]
    assert run_trial_spec(minimized)["digest"] == golden["minimized"]


def test_replay_golden_names_every_reproducer():
    assert sorted(_load(REPLAY_GOLDEN)) == [p.stem for p in REPRODUCERS]


class TestMinimizeSpec:
    _SPEC = {"faults": [{"kind": "a"}, {"kind": "b"}, {"kind": "c"}]}

    def test_floor_one_keeps_last_fault_even_if_always_violating(self):
        minimized = minimize_spec(dict(self._SPEC), violates=lambda c: True)
        assert len(minimized["faults"]) == 1

    def test_floor_zero_can_empty_the_schedule(self):
        minimized = minimize_spec(dict(self._SPEC), violates=lambda c: True,
                                  floor=0)
        assert minimized["faults"] == []

    def test_nothing_droppable_returns_schedule_unchanged(self):
        minimized = minimize_spec(dict(self._SPEC), violates=lambda c: False)
        assert minimized["faults"] == self._SPEC["faults"]

    def test_order_of_survivors_preserved(self):
        keep = [{"kind": "a"}, {"kind": "c"}]
        minimized = minimize_spec(
            dict(self._SPEC),
            violates=lambda c: all(f in c["faults"] for f in keep))
        assert minimized["faults"] == keep
