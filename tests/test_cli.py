"""Tests for the command-line interface."""

import argparse
import json
import os

import pytest

from repro.cli import main, parse_fault
from repro.experiments import EXPERIMENTS
from repro.faults import AMFault, NodeFault, PartitionFault, RackFault, SlowNodeFault, TaskFault
from repro.faults.chaos import build_fault
from repro.faults.inject import MapWaveFault
from repro.mapreduce.tasks import TaskType
from repro.verify.scenarios import SCENARIOS


def _fault(spec):
    """A ``--fault`` shorthand materialised the way ``repro run`` does."""
    return build_fault(parse_fault(spec))


class TestParseFault:
    def test_reduce_spec(self):
        f = _fault("reduce@0.5")
        assert isinstance(f, TaskFault)
        assert f.task_type is TaskType.REDUCE
        assert f.at_progress == 0.5

    def test_map_spec_with_index(self):
        f = _fault("map@0.3:7")
        assert f.task_type is TaskType.MAP
        assert f.task_index == 7

    def test_node_specs(self):
        f = _fault("node@0.4:map-only")
        assert isinstance(f, NodeFault)
        assert f.at_progress == 0.4
        assert f.target == "map-only"
        f2 = _fault("nodetime@30:2")
        assert f2.at_time == 30 and f2.target == 2

    def test_maps_spec(self):
        f = _fault("maps@10:50")
        assert isinstance(f, MapWaveFault)
        assert f.count == 50 and f.at_time == 10

    def test_slow_spec(self):
        f = _fault("slow@5:1:0.25")
        assert isinstance(f, SlowNodeFault)
        assert f.disk_factor == 0.25

    @pytest.mark.parametrize("spec, expected", [
        ("partition@8:1,3:12", PartitionFault(node_indices=(1, 3), at_time=8.0,
                                              duration=12.0)),
        ("partition@8:2", PartitionFault(node_indices=(2,), at_time=8.0,
                                         duration=30.0)),
        ("am@0.4:2", AMFault(at_progress=0.4, repeat=2)),
        ("am@0.6", AMFault(at_progress=0.6)),
        ("amtime@25", AMFault(at_time=25.0)),
        ("rack@20:1:network", RackFault(rack_index=1, at_time=20.0, mode="network")),
        ("rack@20", RackFault(rack_index=0, at_time=20.0, mode="crash")),
    ])
    def test_partition_am_and_rack_specs(self, spec, expected):
        assert _fault(spec) == expected

    def test_shorthand_is_a_json_fault_spec(self):
        assert parse_fault("node@0.5:reducer") == {
            "kind": "node-network", "at_progress": 0.5, "target": "reducer"}
        json.dumps([parse_fault(s) for s in ("reduce@0.5", "partition@8:1,3",
                                            "am@0.4:2", "rack@20:1")])

    def test_bad_specs_rejected(self):
        for bad in ("meteor@1", "reduce", "node@x", "maps@1"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_fault(bad)


class TestRunCommand:
    def test_run_small_job(self, capsys):
        rc = main(["run", "wordcount", "--size-gb", "1", "--nodes", "6",
                   "--policy", "alm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SUCCESS" in out
        assert "committed_reduces" in out

    def test_run_with_fault_and_report(self, capsys):
        rc = main(["run", "wordcount", "--size-gb", "1", "--nodes", "6",
                   "--fault", "reduce@0.8", "--report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "failure timeline" in out
        assert "fault_injected" in out
        assert "flow scheduler:" in out
        assert "filling_rounds" in out
        assert "solo_reshares" in out

    @pytest.mark.parametrize("argv", [["run", "wordcount"],
                                      ["experiment", "fig03"]])
    def test_profile_flag_is_rejected(self, argv, capsys):
        """Profiling is ``python -m cProfile -m repro ...``, not a flag."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--profile"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_run_export_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        rc = main(["run", "wordcount", "--size-gb", "1", "--nodes", "6",
                   "--export", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["success"] is True

    def test_run_iss_policy(self, capsys):
        rc = main(["run", "wordcount", "--size-gb", "1", "--nodes", "6",
                   "--policy", "iss"])
        assert rc == 0

    def test_run_reducers_override(self, capsys):
        rc = main(["run", "terasort", "--size-gb", "2", "--nodes", "6",
                   "--reducers", "3"])
        assert rc == 0

    @pytest.mark.parametrize("flags, message", [
        (["--nodes", "1"], "num_racks must be in [1, num_nodes]"),
        (["--nodes", "4", "--racks", "8"], "num_racks must be in [1, num_nodes]"),
        (["--reducers", "0"], "need at least one reducer"),
        (["--size-gb", "0"], "input_size must be positive"),
    ])
    def test_impossible_job_is_a_usage_error(self, flags, message, capsys):
        """A job that cannot be built exits 2 with one error line, not a
        traceback and not the FAILED-job exit code 1."""
        assert main(["run", "wordcount", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro run: error: {message}\n"
        assert captured.out == ""


#: How each experiment's rendered output begins.
RENDERED_TITLES = {
    "fig01": "Fig. 1\n", "fig02": "Fig. 2\n", "fig03": "fig03: crash=",
    "fig04": "fig04: victim=", "fig08": "Fig. 8\n", "fig09": "Fig. 9\n",
    "fig10": "fig10: crash=", "fig11": "Fig. 11\n", "fig12": "Fig. 12\n",
    "fig13": "Fig. 13\n", "fig14": "Fig. 14\n", "fig15": "Fig. 15\n",
    "table2": "Table II\n",
    "ablations": "Ablation — SFM anti-amplification levers\n",
    "motivation": "Motivation — trace-like fleet under node failures\n",
}


class TestOtherCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "terasort" in out and "alm" in out and "fig08" in out

    def test_experiment_fig03_small(self, capsys):
        assert main(["experiment", "fig03", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "crash=" in out

    def test_experiment_table2_small(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    @pytest.mark.slow
    @pytest.mark.parametrize("name", list(RENDERED_TITLES))
    def test_every_experiment_runs_and_renders(self, name, capsys):
        assert main(["experiment", name, "--scale", "0.05"]) == 0
        assert capsys.readouterr().out.startswith(RENDERED_TITLES[name])

    @pytest.mark.parametrize("name", ["fig11", "fig02"])
    def test_policies_outside_table2_is_a_usage_error(self, name, capsys):
        """Only table2 sweeps a roster; any other experiment would
        silently ignore the flag, so it refuses it before running."""
        assert main(["experiment", name, "--scale", "0.01", "--policies", "atlas"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("repro experiment: error: --policies applies to "
                                f"table2 only, not {name}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["chaos"],
        ["chaos", "--store", "campaign.db"],
        ["experiment", "table2"],
    ])
    def test_unknown_policy_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a command that gets past parsing writes here
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--policies", "alm,nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown policy 'nosuch'" in err
        assert "registered: yarn, " in err

    @pytest.mark.parametrize("argv, message", [
        (["chaos", "--trials", "-3"],
         "repro chaos: error: argument --trials: must be positive, got -3"),
        (["chaos", "--trials", "0"],
         "repro chaos: error: argument --trials: must be positive, got 0"),
        (["chaos", "--scale", "0"],
         "repro chaos: error: argument --scale: must be positive, got 0"),
        (["chaos", "--store", "campaign.db", "--trials", "-2"],
         "repro chaos: error: argument --trials: must be positive, got -2"),
        (["chaos", "--store", "campaign.db", "--scale", "-1"],
         "repro chaos: error: argument --scale: must be positive, got -1"),
        (["experiment", "fig02", "--scale", "-1"],
         "repro experiment: error: argument --scale: must be positive, got -1"),
        (["chaos", "--jobs", "-3"],
         "repro chaos: error: argument --jobs: must be positive, got -3"),
        (["verify", "--jobs", "0"],
         "repro verify: error: argument --jobs: must be positive, got 0"),
        (["campaign", "submit", "--store", "campaign.db", "--jobs", "-1"],
         "repro campaign submit: error: argument --jobs: must be positive, got -1"),
        (["campaign", "resume", "--store", "campaign.db", "--jobs", "0"],
         "repro campaign resume: error: argument --jobs: must be positive, got 0"),
        (["verify", "--scenario", "nosuch"],
         "repro verify: error: argument --scenario: unknown scenario 'nosuch'; "
         f"choose from {', '.join(SCENARIOS)}"),
    ], ids=["chaos-trials-neg", "chaos-trials-zero", "chaos-scale-zero",
            "store-trials-neg", "store-scale-neg", "experiment-scale-neg",
            "chaos-jobs-neg", "verify-jobs-zero", "submit-jobs-neg",
            "resume-jobs-zero", "verify-unknown-scenario"])
    def test_non_positive_count_or_scale_is_a_usage_error(self, argv, message, tmp_path,
                                                          monkeypatch, capsys):
        """Caught by argparse: nothing runs, no store is created, and the
        usage block ends in one error line."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == message
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read reproducer {path}: [Errno 2] No such file or directory"),
        ("not json", "cannot read reproducer {path}: Expecting value"),
        ("[1, 2]", "{path} is not a reproducer (expected a JSON object)"),
    ], ids=["missing", "not-json", "not-object"])
    def test_unreadable_replay_file_is_a_usage_error(self, content, message, tmp_path, capsys):
        path = tmp_path / "chaos-repro.json"
        if content is not None:
            path.write_text(content)
        assert main(["chaos", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("repro chaos: error: " + message.format(path=path))
        assert captured.out == ""

    @pytest.mark.parametrize("edit, message", [
        (lambda spec: spec.pop("input_gb"),
         "trial spec is missing required key(s): input_gb"),
        (lambda spec: spec["faults"].append({"kind": "cosmic-ray"}),
         "unknown fault spec kind 'cosmic-ray'"),
        (lambda spec: spec.update(policy="nosuch"), "unknown policy 'nosuch'"),
        (lambda spec: spec.update(workload="grep"), "unknown workload 'grep'"),
        (lambda spec: spec["faults"].append({"kind": "task-oom", "at_progres": 0.9}),
         "task-oom fault spec has unknown key 'at_progres'"),
        (lambda spec: spec["faults"].append(
            {"kind": "node-crash", "target": 1,
             "after": {"kind": "node_lost", "dealy": 5.0}}),
         "node-crash fault spec 'after' has unknown key 'dealy'"),
        (lambda spec: spec.update(conf={"no_such_key": 1}),
         "conf block has unknown key 'no_such_key'"),
        (lambda spec: spec.update(conf={"max_attempts": "x"}),
         "conf block key 'max_attempts': expected int, got 'x'"),
        (lambda spec: spec.update(liveness="x"),
         "trial spec key 'liveness': expected float, got 'x'"),
        (lambda spec: spec.update(replication="x"),
         "trial spec key 'replication': expected int, got 'x'"),
        (lambda spec: spec.update(nodes="7"), "trial spec key 'nodes': expected int, got '7'"),
        (lambda spec: spec.update(reducers=2.5),
         "trial spec key 'reducers': expected int, got 2.5"),
        (lambda spec: spec.update(faults="x"),
         "trial spec key 'faults': expected list, got 'x'"),
        (lambda spec: spec.update(faults=[1]), "fault spec is not a JSON object: 1"),
        (lambda spec: spec.update(workload=["terasort"]),
         "trial spec key 'workload': expected str, got ['terasort']"),
        (lambda spec: spec.update(rpc={"drop_prob": "x"}),
         "rpc block key 'drop_prob': expected float, got 'x'"),
        (lambda spec: spec.update(speculation="no"),
         "trial spec key 'speculation': expected bool, got 'no'"),
        (lambda spec: spec.update(reducers=True),
         "trial spec key 'reducers': expected int, got True"),
        (lambda spec: spec["faults"].append({"kind": "task-oom", "task_index": 2.7}),
         "task-oom fault spec key 'task_index': expected int, got 2.7"),
        (lambda spec: spec["faults"].append({"kind": "task-oom", "at_progress": "0.5"}),
         "task-oom fault spec key 'at_progress': expected float, got '0.5'"),
        (lambda spec: spec["faults"].append(
            {"kind": "partition", "node_indices": "12", "at_time": 10.0, "duration": 5.0}),
         "partition fault spec key 'node_indices': expected tuple[int, ...], got '12'"),
    ], ids=["missing-key", "unknown-fault-kind", "unregistered-policy",
            "unknown-workload", "unknown-fault-key", "unknown-after-key",
            "unknown-conf-key", "conf-value-type", "liveness-type", "replication-type",
            "nodes-type", "reducers-type", "faults-not-list", "fault-not-object",
            "workload-type", "rpc-value-type", "speculation-type", "reducers-bool",
            "task-index-float", "at-progress-str", "node-indices-str"])
    def test_malformed_replay_spec_is_a_usage_error(self, edit, message, tmp_path,
                                                    capsys):
        """Exit 1 means "violation reproduced", so a reproducer that
        cannot be built exits 2 with one error line, not a traceback."""
        from repro.faults.chaos import generate_trial

        spec = generate_trial({"seed": 7, "scale": 0.25}, 0)
        edit(spec)
        path = tmp_path / "chaos-repro.json"
        path.write_text(json.dumps({"spec": spec}))
        assert main(["chaos", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"repro chaos: error: cannot replay {path}: {message}")
        assert captured.out == ""

    def test_chaos_replay_rejects_metamorphic_reproducer(self, tmp_path, capsys):
        """``repro verify`` writes ``metamorphic-<relation>.json`` into the
        same default ``--out`` directory as chaos reproducers; replaying
        one names it and points at ``repro verify --metamorphic``
        instead of dying on its scenario spec."""
        from repro.verify.metamorphic import RELATIONS
        from repro.verify.scenarios import scenario_spec

        relation = next(iter(RELATIONS.values()))
        spec = scenario_spec(relation.scenario)
        path = tmp_path / f"metamorphic-{relation.name}.json"
        path.write_text(json.dumps({
            "relation": relation.name, "description": relation.description,
            "scenario": relation.scenario, "violations": ["synthetic"],
            "spec": spec, "minimized_faults": spec["faults"]}))
        assert main(["chaos", "--replay", str(path)]) != 0
        err = capsys.readouterr().err
        assert str(path) in err
        assert "metamorphic reproducer" in err
        assert "repro verify --metamorphic" in err


class TestJobsFlag:
    """``--jobs`` is an argument passed down to the trial runner: it
    changes no output and leaves no trace in the process environment."""

    def test_paper_layer_parallel_stdout_matches_serial(self, monkeypatch, capsys):
        """The paper layer's rows fan out under ``jobs``; apart from the
        wall seconds, they print the same text in the same order."""
        from repro import cli

        # Two CPUs reported: a single-core host would otherwise take the
        # serial path for jobs=2 and compare serial with serial.
        monkeypatch.setattr("repro.runner.runner.os.cpu_count", lambda: 2)
        monkeypatch.setattr("repro.cli.EXPERIMENTS", {
            name: EXPERIMENTS[name]
            for name in ("fig03", "fig04", "fig10", "table2", "motivation")})

        def stdout(jobs):
            assert cli._check_paper_claims(jobs) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.endswith(" s wall")]

        serial = stdout(1)
        before = dict(os.environ)
        assert stdout(2) == serial
        assert dict(os.environ) == before
        assert "  PASS motivation/alm_minus_yarn_failed_jobs value=0 bound=[-inf, 0]" in serial

    @pytest.mark.parametrize("argv", [
        ["chaos", "--smoke", "--trials", "2", "--jobs", "2"],
        ["verify", "--matrix", "--scenario", "clean-terasort-yarn", "--jobs", "2"],
    ], ids=["chaos", "verify"])
    def test_main_sets_no_environment_variable(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # chaos writes any reproducer here
        monkeypatch.setattr("repro.runner.runner.os.cpu_count", lambda: 2)
        before = dict(os.environ)
        assert main(argv) == 0
        assert dict(os.environ) == before
