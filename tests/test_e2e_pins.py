"""Every trial the end-to-end benchmark pins, replayed at paper scale.

``benchmarks/e2e/expected.json`` pins the trace digest and simulated
``elapsed`` of every trial in ``trials.pinned_trials``: both pinned
seeds of ``terasort-testbed``, ``paper-recovery`` and ``shuffle-wide``,
and the whole 1,200-trial chaos pool. The benchmark checks only the
trials a run happens to draw; this replays all of them (~35 s on one
core) and reads the pins without writing them.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _trials_module():
    name = "e2e_trials"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, E2E / "trials.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look themselves up here
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["terasort-testbed", "paper-recovery",
                                      "shuffle-wide", "chaos-campaign"])
def test_every_pinned_trial_replays(workload, monkeypatch):
    # The benchmark's setting: the default implementation.
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    trials = _trials_module()
    pins = json.loads((E2E / "expected.json").read_text())[workload]
    pinned = trials.pinned_trials(workload)
    assert sorted(t.label for t in pinned) == sorted(pins)
    mismatched = []
    for trial in pinned:
        payload = trial()
        pin = pins[trial.label]
        if (payload["digest"], payload["elapsed"], payload["violations"]) != (
                pin["digest"], pin["elapsed"], []):
            mismatched.append(trial.label)
    assert mismatched == []
