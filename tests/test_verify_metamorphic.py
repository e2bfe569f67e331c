"""Metamorphic relations and their automatic shrinking path."""

import json

import pytest

from repro.verify import RELATIONS, Relation, run_all_relations, run_relation
from repro.verify.scenarios import SCENARIOS, register


def _quiet(*_args, **_kw):
    pass


class TestRelations:
    def test_registry_meets_issue_floor(self):
        assert len(RELATIONS) >= 6

    @pytest.mark.parametrize("name", sorted(RELATIONS))
    def test_relation_holds(self, name):
        result = run_relation(name)
        assert result.ok, result.violations
        assert result.minimized_faults is None
        assert result.reproducer is None

    def test_run_all_relations_reports_every_one(self):
        lines = []
        results = run_all_relations(names=["post-completion-fault-is-noop"],
                                    echo=lines.append)
        assert len(results) == 1 and results[0].ok
        assert any("ok" in line for line in lines)

    def test_unknown_relation_rejected(self):
        from repro.sim.core import SimulationError

        with pytest.raises(SimulationError, match="unknown relation"):
            run_relation("no-such-relation")


@pytest.fixture
def shrink_scenario():
    """A scenario whose fault schedule holds one real culprit (an early
    reduce OOM) buried between two post-completion decoy crashes that
    never fire."""
    name = "shrink-probe"
    culprit = {"kind": "task-oom", "task_type": "reduce", "task_index": 0,
               "at_progress": 0.5}
    decoy = {"kind": "node-crash", "target": 0, "at_time": 90_000.0}
    register(name, faults=[decoy, culprit, dict(decoy, target=1)])
    try:
        yield name, culprit
    finally:
        del SCENARIOS[name]


class TestShrinking:
    def test_failure_shrinks_to_single_culprit_fault(self, shrink_scenario,
                                                     tmp_path):
        name, culprit = shrink_scenario
        # A deliberately unsatisfiable oracle: it trips whenever the
        # fault schedule fires at all, so only the culprit sustains the
        # failure and the two decoys must be shrunk away.
        probe = Relation(
            name="shrink-probe-relation",
            scenario=name,
            description="test-only: fails iff any fault fires",
            transform=lambda spec: spec,
            oracle=lambda base, variant, *_: (
                ["synthetic: a fault fired"]
                if base["kinds"].get("fault_injected", 0) else []),
        )
        result = run_relation(probe, out_dir=tmp_path)
        assert not result.ok
        assert result.minimized_faults == [culprit]

        reproducer = json.loads((tmp_path / "metamorphic-shrink-probe-"
                                 "relation.json").read_text())
        assert reproducer["relation"] == "shrink-probe-relation"
        assert reproducer["scenario"] == name
        assert reproducer["minimized_faults"] == [culprit]
        assert reproducer["violations"] == ["synthetic: a fault fired"]
        assert len(reproducer["spec"]["faults"]) == 3

    def test_fault_independent_failure_shrinks_to_empty_schedule(
            self, shrink_scenario, tmp_path):
        """floor=0: a relation that fails regardless of the schedule
        shrinks all the way to zero faults."""
        name, _culprit = shrink_scenario
        probe = Relation(
            name="shrink-to-empty",
            scenario=name,
            description="test-only: always fails",
            transform=lambda spec: spec,
            oracle=lambda *_: ["synthetic: unconditional failure"],
        )
        result = run_relation(probe, out_dir=tmp_path)
        assert not result.ok
        assert result.minimized_faults == []
        assert (tmp_path / "metamorphic-shrink-to-empty.json").exists()


class TestRecordProgress:
    @pytest.mark.parametrize("name", ["shuffle-heavy-yarn", "straggler-spec-alm"])
    def test_option_only_adds_observations(self, name):
        """``record_progress`` logs ``task_progress``/``flow_done`` and
        nothing else: dropping those records from a run with the option
        on leaves exactly the records of the same spec with it off."""
        from repro.verify.scenarios import run_verify_spec, scenario_spec

        on = scenario_spec(name)
        assert on["record_progress"] is True
        off = {k: v for k, v in on.items() if k != "record_progress"}
        with_obs = run_verify_spec(on, collect_trace=True)["trace_records"]
        without = run_verify_spec(off, collect_trace=True)["trace_records"]
        observed = {"task_progress", "flow_done"}
        assert {r["kind"] for r in with_obs} >= observed
        assert [r for r in with_obs if r["kind"] not in observed] == without
