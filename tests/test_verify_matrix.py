"""The differential matrix runner and its event-stream diff helper."""

import json

import pytest

from repro.metrics.trace import TraceEvent, first_divergence
from repro.verify import (
    COMBOS,
    DivergenceError,
    check_golden,
    refresh_golden,
    run_matrix,
    run_matrix_trial,
)


def _quiet(*_args, **_kw):
    pass


class TestFirstDivergence:
    def test_identical_streams(self):
        a = [{"time": float(i), "kind": "tick", "n": i} for i in range(100)]
        assert first_divergence(a, list(a)) is None

    def test_empty_streams(self):
        assert first_divergence([], []) is None
        assert first_divergence([], [{"kind": "x"}]) == 0

    def test_single_mid_stream_divergence(self):
        a = [{"time": float(i), "kind": "tick", "n": i} for i in range(1000)]
        b = [dict(r) for r in a]
        b[617]["n"] = -1
        assert first_divergence(a, b) == 617

    def test_first_divergence_wins_over_later_rematch(self):
        # Streams re-converge after index 3 — the *first* divergence
        # must be reported, not the later one.
        a = [{"k": v} for v in (1, 2, 3, 9, 5, 6, 7)]
        b = [{"k": v} for v in (1, 2, 3, 4, 5, 6, 8)]
        assert first_divergence(a, b) == 3

    def test_prefix_stream(self):
        a = [{"n": i} for i in range(10)]
        assert first_divergence(a, a[:7]) == 7
        assert first_divergence(a[:7], a) == 7

    def test_accepts_trace_events(self):
        a = [TraceEvent(0.0, "x", {"i": 0}), TraceEvent(1.0, "y", {"i": 1})]
        b = [TraceEvent(0.0, "x", {"i": 0}), TraceEvent(1.0, "y", {"i": 2})]
        assert first_divergence(a, b) == 1
        assert first_divergence(a, list(a)) is None


class TestScenarioRegistry:
    """Scenarios are plain trial specs; ``register`` rejects the ones
    ``build_runtime`` would misread."""

    @pytest.mark.parametrize("keys, message", [
        ({"seed": 5}, "unknown spec key"),
        ({"policy": "nosuch"}, "unknown policy"),
        ({"workload": "grep"}, "unknown workload"),
    ])
    def test_bad_scenario_rejected(self, keys, message):
        from repro.sim.core import SimulationError
        from repro.verify.scenarios import SCENARIOS, register

        with pytest.raises(SimulationError, match=message):
            register("bad-probe", **keys)
        assert "bad-probe" not in SCENARIOS
        with pytest.raises(SimulationError, match="duplicate scenario name"):
            register("clean-terasort-yarn")

    def test_scenario_spec_is_a_private_copy(self):
        from repro.verify.scenarios import SCENARIOS, scenario_spec

        spec = scenario_spec("oom-reduce-yarn")
        spec["faults"][0]["at_progress"] = 0.9
        assert SCENARIOS["oom-reduce-yarn"]["faults"][0]["at_progress"] == 0.5


class TestMatrixTrial:
    def test_combo_selected_inside_trial(self, monkeypatch):
        """The scheduler is chosen inside the trial (so it holds in
        worker processes) and restored afterwards."""
        import os

        import repro.cluster.cluster as cluster_mod
        from repro.sim.flows_reference import ReferenceFlowScheduler

        chosen = []
        pick = cluster_mod.flow_scheduler_class

        def recording_pick(num_nodes):
            chosen.append(pick(num_nodes))
            return chosen[-1]

        monkeypatch.setattr(cluster_mod, "flow_scheduler_class", recording_pick)
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        jobs = (("clean-terasort-yarn", "reference", ""),)
        payload = run_matrix_trial(0, jobs)
        assert payload["combo"] == "reference"
        assert chosen and set(chosen) == {ReferenceFlowScheduler}
        assert "REPRO_SCHEDULER" not in os.environ
        assert payload["invariant_violations"] == []

    def test_combos_select_distinct_implementations(self):
        """Every COMBOS entry runs different flow-scheduler classes at
        the corpus's cluster sizes: a duplicate entry re-runs the same
        code and proves nothing."""
        from repro.cluster.cluster import flow_scheduler_class
        from repro.verify.differential import _impl_env
        from repro.verify.scenarios import corpus

        sizes = sorted({scenario["nodes"] for scenario in corpus()})
        selected = []
        assert COMBOS == ("default", "reference", "columnar")
        for scheduler in COMBOS:
            with _impl_env(scheduler):
                selected.append(tuple(flow_scheduler_class(n) for n in sizes))
        assert len(set(selected)) == len(COMBOS), selected

    def test_single_scenario_full_matrix_identical(self):
        report = run_matrix(names=["oom-reduce-yarn"], echo=_quiet)
        assert report["runs"] == len(COMBOS)
        assert len(report["digests"]) == 1


class TestSeededDivergence:
    """An intentionally-seeded divergence (test-only fault) must be
    reported with the scenario name, seed, and first diverging event."""

    def test_divergence_names_scenario_seed_and_event(self):
        with pytest.raises(DivergenceError) as excinfo:
            run_matrix(
                names=["oom-reduce-yarn"],
                mutations={("oom-reduce-yarn", "reference"): "append-event"},
                echo=_quiet,
            )
        divergence = excinfo.value.divergence
        assert divergence.scenario == "oom-reduce-yarn"
        assert divergence.seed == 11
        assert divergence.combo_b == "reference"
        assert divergence.event_index is not None
        assert divergence.event_b == {"time": -1.0,
                                      "kind": "verify_divergence_probe"}
        message = str(excinfo.value)
        assert "oom-reduce-yarn" in message
        assert "seed 11" in message
        assert "between schedulers default" in message
        assert "verify_divergence_probe" in message


class TestFullMatrix:
    def test_full_corpus_all_combos(self):
        report = run_matrix(echo=_quiet)
        assert report["scenarios"] >= 15
        assert report["runs"] == report["scenarios"] * len(COMBOS)
        assert check_golden(report["digests"]) == []


class TestGoldenFile:
    def test_check_golden_flags_drift_and_names_remedy(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr("repro.verify.differential.golden_path",
                            lambda: tmp_path / "scenarios.json")
        refresh_golden({"a": "1" * 64, "b": "2" * 64})
        assert check_golden({"a": "1" * 64, "b": "2" * 64}) == []
        problems = check_golden({"a": "1" * 64, "b": "f" * 64, "c": "3" * 64})
        text = "\n".join(problems)
        assert "'b' digest drifted" in text
        assert "'c' has no golden digest" in text
        assert "--refresh-golden" in text

    def test_refresh_writes_sorted_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.verify.differential.golden_path",
                            lambda: tmp_path / "scenarios.json")
        path = refresh_golden({"z": "9" * 64, "a": "1" * 64})
        data = json.loads(path.read_text())
        assert list(data) == ["a", "z"]

    def test_scenario_refresh_keeps_the_other_pins(self, tmp_path, monkeypatch, capsys):
        """``--refresh-golden --scenario NAME`` moves only NAME's pin; a
        full refresh writes exactly the corpus, dropping stale pins."""
        from repro.cli import main
        from repro.verify import load_golden
        from repro.verify.scenarios import SCENARIOS

        pins = load_golden()
        monkeypatch.setattr("repro.verify.differential.golden_path",
                            lambda: tmp_path / "scenarios.json")
        refresh_golden({"clean-terasort-yarn": "0" * 64, "oom-reduce-yarn": "1" * 64,
                        "retired-scenario": "2" * 64})
        assert main(["verify", "--refresh-golden", "--scenario", "clean-terasort-yarn"]) == 0
        assert load_golden() == {"clean-terasort-yarn": pins["clean-terasort-yarn"],
                                 "oom-reduce-yarn": "1" * 64,
                                 "retired-scenario": "2" * 64}
        assert main(["verify", "--refresh-golden"]) == 0
        assert load_golden() == pins
        assert list(pins) == sorted(SCENARIOS)
        assert (f"golden digests for {len(SCENARIOS)} scenarios written"
                in capsys.readouterr().out)
