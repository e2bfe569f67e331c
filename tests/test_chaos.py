"""Tests for the chaos campaign engine: deterministic schedule
generation, spec round-tripping, greedy minimization and the node
recovery paths the campaigns stress."""

import json
import re
from functools import partial
from pathlib import Path

import pytest

from repro.faults import (
    AMFault,
    EventTrigger,
    MapWaveFault,
    NodeFault,
    PartitionFault,
    RackFault,
    SlowNodeFault,
    TaskFault,
)
import repro.faults.chaos as chaos
from repro.faults.chaos import (
    CHAOS_POLICIES,
    FAULT_KINDS,
    build_fault,
    generate_trial,
    minimize_spec,
    run_chaos_trial,
)
from repro.mapreduce.tasks import TaskType
from repro.sim.core import SimulationError

from tests.conftest import make_runtime, tiny_workload

CAMPAIGN = {"seed": 7, "scale": 0.25}


class TestScheduleGeneration:
    def test_same_seed_same_schedule(self):
        for index in range(12):
            assert generate_trial(CAMPAIGN, index) == generate_trial(CAMPAIGN, index)

    def test_different_seed_different_schedule(self):
        a = generate_trial({"seed": 7}, 3)
        b = generate_trial({"seed": 8}, 3)
        assert a != b

    def test_policy_and_kind_rotation_covers_everything(self):
        specs = [generate_trial(CAMPAIGN, i) for i in range(40)]
        policies = {s["policy"] for s in specs}
        assert policies == set(CHAOS_POLICIES)
        # Every archetype appears as the primary kind within 40 trials.
        primary = {FAULT_KINDS[i % len(FAULT_KINDS)] for i in range(40)}
        assert primary == set(FAULT_KINDS)
        # And the materialised fault specs span >= 6 distinct kinds.
        spec_kinds = {f["kind"] for s in specs for f in s["faults"]}
        assert len(spec_kinds) >= 6

    def test_specs_are_json_primitives(self):
        import json

        for i in range(8):
            json.dumps(generate_trial(CAMPAIGN, i))  # must not raise

    def test_unknown_kind_rejected(self):
        rng = __import__("numpy").random.default_rng(0)
        with pytest.raises(SimulationError):
            chaos._sample_faults("no-such-kind", rng, {"nodes": 6, "reducers": 2,
                                                       "racks": 2, "liveness": 20.0})


class TestBuildFault:
    """Every JSON spec kind materialises as the right injector."""

    def test_task_oom(self):
        f = build_fault({"kind": "task-oom", "task_type": "map", "task_index": 3,
                         "at_progress": 0.25, "repeat": 2})
        assert isinstance(f, TaskFault)
        assert f.task_type is TaskType.MAP
        assert (f.task_index, f.at_progress, f.repeat) == (3, 0.25, 2)

    def test_node_crash_with_trigger(self):
        f = build_fault({"kind": "node-crash", "target": 2,
                         "after": {"kind": "node_lost", "delay": 10.0},
                         "duration": 90.0})
        assert isinstance(f, NodeFault)
        assert f.mode == "crash"
        assert isinstance(f.after, EventTrigger)
        assert f.after.kind == "node_lost" and f.after.delay == 10.0
        assert f.duration == 90.0

    def test_node_network(self):
        f = build_fault({"kind": "node-network", "target": "reducer",
                         "at_time": 30.0})
        assert isinstance(f, NodeFault) and f.mode == "network"

    def test_partition(self):
        f = build_fault({"kind": "partition", "node_indices": [1, 3],
                         "at_time": 40.0, "duration": 25.0})
        assert isinstance(f, PartitionFault)
        assert f.node_indices == (1, 3)

    def test_rack(self):
        f = build_fault({"kind": "rack", "rack_index": 1, "count": 2,
                         "at_time": 50.0, "mode": "crash", "stagger": 1.5,
                         "duration": 80.0})
        assert isinstance(f, RackFault)
        assert (f.rack_index, f.count, f.stagger) == (1, 2, 1.5)

    def test_degraded(self):
        f = build_fault({"kind": "degraded", "node_index": 2, "at_time": 10.0,
                         "disk_factor": 0.1, "nic_factor": 0.5})
        assert isinstance(f, SlowNodeFault)
        assert f.disk_factor == 0.1

    def test_map_wave(self):
        f = build_fault({"kind": "map-wave", "count": 2, "at_time": 5.0})
        assert isinstance(f, MapWaveFault)

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(SimulationError):
            build_fault({"kind": "cosmic-ray"})

    @pytest.mark.parametrize("kind, keys, cls", [
        ("task-oom", {}, TaskFault),
        ("node-crash", {"at_time": 10.0}, partial(NodeFault, mode="crash")),
        ("node-network", {"at_time": 10.0}, NodeFault),
        ("partition", {}, PartitionFault),
        ("rack", {}, RackFault),
        ("degraded", {}, SlowNodeFault),
        ("map-wave", {"count": 1, "at_time": 5.0}, MapWaveFault),
        ("am-crash", {"at_progress": 0.5}, AMFault),
    ])
    def test_minimal_spec_takes_the_class_defaults(self, kind, keys, cls):
        """The injector classes hold the only fault defaults: a JSON
        spec naming just the keys its kind needs builds the same fault
        as the class given those keywords."""
        assert build_fault({"kind": kind, **keys}) == cls(**keys)

    def test_generated_specs_all_buildable(self):
        for i in range(16):
            for d in generate_trial(CAMPAIGN, i)["faults"]:
                build_fault(d)  # must not raise


class TestBenchmarkPins:
    def test_chaos_pool_digests_match_the_benchmark_pins(self):
        """Trials 0-98 of the end-to-end benchmark's chaos pool (campaign
        2015, AM faults on, every registered policy) pair each of the 9
        policies with each of the 11 fault archetypes, so every JSON
        fault kind runs under every policy. Each digest must equal its
        pin in ``benchmarks/e2e/expected.json``."""
        from repro.policies import policy_names

        expected = Path(__file__).resolve().parents[1] / "benchmarks/e2e/expected.json"
        pins = json.loads(expected.read_text())["chaos-campaign"]
        campaign = {"seed": 2015, "am_faults": True, "scale": 1.0,
                    "policies": list(policy_names())}
        mismatched, kinds = [], set()
        for index in range(99):
            spec = generate_trial(campaign, index)
            kinds.update(f["kind"] for f in spec["faults"])
            digest = chaos.run_trial_spec(spec)["digest"]
            if digest != pins[f"chaos-s2015-x1-t{index}"]["digest"]:
                mismatched.append(index)
        assert mismatched == []
        assert kinds == {"task-oom", "node-crash", "node-network", "partition",
                         "rack", "degraded", "map-wave", "am-crash", "rpc-loss"}


class TestTrialDeterminism:
    def test_same_trial_same_digest(self):
        a = run_chaos_trial(0, CAMPAIGN)
        b = run_chaos_trial(0, CAMPAIGN)
        assert a["digest"] == b["digest"]
        assert a["spec"] == b["spec"]
        assert a["violations"] == [] and b["violations"] == []


class TestBuildRuntime:
    """``build_runtime`` is where every JSON trial spec becomes a runtime."""

    def _spec(self, **keys):
        spec = {"workload": "terasort", "input_gb": 1.0, "reducers": 2,
                "nodes": 6, "racks": 2, "runtime_seed": 3, "policy": "yarn",
                "faults": []}
        spec.update(keys)
        return spec

    @pytest.mark.parametrize("key", chaos.REQUIRED_KEYS)
    def test_missing_required_key_is_named(self, key):
        spec = self._spec()
        del spec[key]
        with pytest.raises(SimulationError, match=f"missing required key.*{key}"):
            chaos.build_runtime(spec, "job")

    def test_optional_keys_fall_back_to_runtime_defaults(self):
        from repro.hdfs.hdfs import HdfsConfig
        from repro.mapreduce.config import JobConf
        from repro.yarn.rm import YarnConfig

        rt = chaos.build_runtime(self._spec(), "job")
        assert rt.rm.config == YarnConfig()
        assert rt.hdfs.config == HdfsConfig()
        assert rt.conf == JobConf()
        assert rt.speculator is None
        assert rt.cluster.flows.on_complete is None

    def test_optional_keys_reach_the_runtime(self):
        rt = chaos.build_runtime(self._spec(
            liveness=15.0, replication=3, conf={"am_max_attempts": 4},
            speculation=True, record_progress=True), "job")
        assert rt.rm.config.nm_liveness_timeout == 15.0
        assert rt.hdfs.config.replication == 3
        assert rt.conf.am_max_attempts == 4
        assert rt.speculator is not None
        assert rt.cluster.flows.on_complete is not None

    def test_rpc_loss_fault_is_a_channel_overlay(self):
        """``rpc-loss`` sets the channel knobs and installs no injector;
        an explicit ``rpc`` block overrides it key by key."""
        rt = chaos.build_runtime(self._spec(
            faults=[{"kind": "rpc-loss", "drop_prob": 0.1, "delay_prob": 0.2,
                     "max_delay": 1.0, "seed": 5}],
            rpc={"seed": 9}), "job")
        cfg = rt.rm.config
        assert (cfg.rpc_drop_prob, cfg.rpc_delay_prob, cfg.rpc_max_delay,
                cfg.rpc_seed) == (0.1, 0.2, 1.0, 9)

    @pytest.mark.parametrize("fault, message", [
        ({"kind": "task-oom", "at_progres": 0.9},
         "task-oom fault spec has unknown key 'at_progres'"),
        ({"kind": "node-crash", "target": 1, "mode": "network", "at_time": 5.0},
         "node-crash fault spec has unknown key 'mode'"),
        ({"kind": "node-crash", "target": 1,
          "after": {"kind": "node_lost", "dealy": 5.0}},
         "node-crash fault spec 'after' has unknown key 'dealy'"),
        ({"kind": "rpc-loss", "drop": 0.1},
         "rpc-loss fault spec has unknown key 'drop'"),
    ], ids=["top-level", "fixed-by-kind", "after", "rpc-loss"])
    def test_unknown_fault_key_is_named(self, fault, message):
        """A misspelled key is an error, not a fault silently run at
        its default."""
        with pytest.raises(SimulationError, match=re.escape(message)):
            chaos.build_runtime(self._spec(faults=[fault]), "job")

    def test_fault_missing_a_key_is_named(self):
        with pytest.raises(SimulationError, match="missing key 'at_time'"):
            chaos.build_runtime(self._spec(faults=[{"kind": "map-wave", "count": 1}]),
                                "job")

    def test_frozen_chaos_scenario_matches_its_trial(self):
        """A verify scenario frozen from a chaos trial is the same run:
        only the job name (hence the digest) differs."""
        from repro.verify.scenarios import run_verify_spec, scenario_spec

        verify = run_verify_spec(scenario_spec("chaos-2015-7"))
        trial = chaos.run_trial_spec(generate_trial({"seed": 2015, "scale": 0.5}, 7))
        assert round(verify["elapsed"], 3) == trial["elapsed"]
        assert verify["success"] == trial["success"]


class TestMinimization:
    def test_minimize_drops_irrelevant_faults(self, monkeypatch):
        marker = {"kind": "task-oom", "task_index": 0, "_marker": True}
        noise = [{"kind": "map-wave", "count": 1, "at_time": 5.0},
                 {"kind": "node-crash", "target": 0, "at_time": 30.0}]

        def fake_run(spec):
            violating = any(f.get("_marker") for f in spec["faults"])
            return {"violations": ["boom"] if violating else []}

        monkeypatch.setattr(chaos, "run_trial_spec", fake_run)
        spec = {"index": 0, "faults": [noise[0], marker, noise[1]]}
        minimized = minimize_spec(spec)
        assert minimized["faults"] == [marker]
        # The input spec is not mutated.
        assert len(spec["faults"]) == 3

    def test_minimize_keeps_jointly_necessary_pair(self, monkeypatch):
        a = {"kind": "task-oom", "task_index": 0}
        b = {"kind": "node-crash", "target": 0, "at_time": 30.0}

        def fake_run(spec):
            return {"violations": ["boom"] if len(spec["faults"]) == 2 else []}

        monkeypatch.setattr(chaos, "run_trial_spec", fake_run)
        assert minimize_spec({"faults": [a, b]})["faults"] == [a, b]


class TestNodeRecovery:
    def test_partition_past_liveness_rejoins(self):
        """A partition outliving the liveness timeout must produce the
        full lost -> rejoin cycle, and the job must still finish."""
        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1))
        # 30 s > the 20 s liveness timeout, yet short enough that the
        # heal lands while the job is still running (ends ~53 s).
        fault = PartitionFault(node_indices=(1,), at_time=4.0, duration=30.0)
        fault.install(rt)
        res = rt.run()
        assert res.success
        lost = rt.trace.of_kind("node_lost")
        rejoined = rt.trace.of_kind("node_rejoined")
        assert fault.victim_names == [lost[0].data["node"]]
        assert rejoined and rejoined[0].data["node"] == fault.victim_names[0]
        assert fault.recovered_at == pytest.approx(34.0)

    def test_short_partition_heals_without_loss(self):
        """Shorter than the liveness timeout: the RM never notices, so
        attempts that vanished into the partition are recovered only by
        the AM's task timeout (two real bugs found by this scenario: a
        permanently-stranded task and a leaked mid-handout container)."""
        from repro.mapreduce.config import JobConf

        rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.1),
                          conf=JobConf(task_timeout=60.0))
        fault = PartitionFault(node_indices=(1,), at_time=4.0, duration=8.0)
        fault.install(rt)
        res = rt.run()
        assert res.success
        assert not rt.trace.of_kind("node_lost")
        assert fault.recovered_at == pytest.approx(12.0)
        timeouts = [e for e in rt.trace.of_kind("attempt_failed")
                    if e.data["reason"] == "task-timeout"]
        assert timeouts, "vanished attempts must be recovered by task timeout"
        from repro.invariants import check_invariants
        assert check_invariants(rt, res) == []
