"""The policy table: enumeration, construction, and the conformance
property every policy must satisfy.

Tier-1 covers the table mechanics (the name order is pinned, the seed
roster is the chaos rotation, each factory receives only the kwargs it
declares). The tier-2 conformance suite is the table's real teeth:
*every* policy — seed or zoo, present or future — runs a seeded smoke
workload under each fault kind and must pass all invariants, terminate,
and produce byte-identical trace digests on rerun and across the
``REPRO_SCHEDULER`` implementation modes. A new table row gets this
safety net for free.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alm import ALMPolicy
from repro.faults.chaos import CHAOS_POLICIES
from repro.mapreduce.recovery import RecoveryPolicy, YarnRecoveryPolicy
from repro.policies import POLICIES, make_policy, policy_names
from repro.sim.core import SimulationError

from tests.conftest import make_runtime, tiny_workload


class TestDiscovery:
    """What every harness enumerates through ``policy_names()``."""

    def test_seed_roster_is_the_chaos_rotation(self):
        assert policy_names()[:5] == CHAOS_POLICIES

    def test_seed_policies_enumerate_first(self):
        """The exact table order, seeds first: chaos rotations and
        campaign ids index this tuple."""
        assert policy_names() == ("yarn", "alg", "sfm", "alm", "iss",
                                  "atlas", "binocular", "m3r", "quantile")

    def test_zoo_policies_present(self):
        names = policy_names()
        for name in ("binocular", "atlas", "quantile", "m3r"):
            assert name in names

    def test_specs_carry_descriptions_and_modules(self):
        for name, (factory, description) in POLICIES.items():
            assert description, name
            assert factory.__module__.startswith("repro.policies."), name

    def test_every_policy_is_a_recovery_policy(self):
        for name in policy_names():
            assert isinstance(make_policy(name), RecoveryPolicy), name


class TestConstruction:
    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError, match="unknown policy"):
            make_policy("no-such-policy")

    def test_kwargs_filtered_per_factory(self):
        """One shared kwargs namespace: each factory takes only the
        knobs it declares."""
        yarn = make_policy("yarn", fcm_cap=3, alg_frequency=5.0)
        assert isinstance(yarn, YarnRecoveryPolicy)
        sfm = make_policy("sfm", fcm_cap=3, alg_frequency=5.0)
        assert isinstance(sfm, ALMPolicy)
        assert sfm.config.fcm_cap == 3


# -- conformance -------------------------------------------------------------

#: One representative fault per chaos archetype family, shaped for the
#: smoke workload below (2 reducers, 6 nodes).
_CONFORMANCE_FAULTS = {
    "none": (),
    "task-oom": ({"kind": "task-oom", "task_type": "reduce", "task_index": 0,
                  "at_progress": 0.5},),
    "node-crash": ({"kind": "node-crash", "target": "reducer",
                    "at_progress": 0.4},),
    "partition": ({"kind": "partition", "node_indices": [2], "at_time": 6.0,
                   "duration": 30.0},),
    "degraded": ({"kind": "degraded", "node_index": 2, "at_time": 5.0,
                  "disk_factor": 0.2, "nic_factor": 0.5, "duration": 40.0},),
}

_MODES = (
    {},
    {"REPRO_SCHEDULER": "columnar"},
    {"REPRO_SCHEDULER": "reference"},
)


def _conformance_run(policy_name: str, fault_key: str,
                     env: dict[str, str]) -> dict:
    from repro.faults.chaos import build_fault
    from repro.faults.inject import FaultInjector
    from repro.invariants import check_invariants

    saved = {k: os.environ.get(k) for k in ("REPRO_SCHEDULER",)}
    try:
        for key, value in env.items():
            os.environ[key] = value
        rt = make_runtime(tiny_workload(reducers=2, input_mb=768),
                          policy=make_policy(policy_name))
        faults = _CONFORMANCE_FAULTS[fault_key]
        if faults:
            FaultInjector(*[build_fault(dict(d)) for d in faults]).install(rt)
        # A bounded run IS the termination check: a policy that stalls
        # its job (no progress for stall_timeout) fails here instead of
        # hanging the suite.
        res = rt.run(timeout=50_000.0, stall_timeout=1_000.0)
        return {
            "digest": res.trace.digest(),
            "violations": check_invariants(rt, res),
            "success": res.success,
        }
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@pytest.mark.slow
class TestConformance:
    """Every policy x fault kind: invariants, termination, determinism."""

    @given(
        policy=st.sampled_from(policy_names()),
        fault_key=st.sampled_from(sorted(_CONFORMANCE_FAULTS)),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_policy_fault_conformance(self, policy, fault_key):
        base = _conformance_run(policy, fault_key, {})
        assert base["violations"] == [], (
            f"{policy} under {fault_key}: {base['violations']}")
        rerun = _conformance_run(policy, fault_key, {})
        assert rerun["digest"] == base["digest"], (
            f"{policy} under {fault_key}: digest drifted on rerun")
        for env in _MODES[1:]:
            other = _conformance_run(policy, fault_key, env)
            assert other["digest"] == base["digest"], (
                f"{policy} under {fault_key}: digest differs under {env}")

    def test_full_grid_clean_fault(self):
        """Exhaustive (not sampled) sweep of the two cheapest fault
        kinds across the whole registry, so every policy is guaranteed
        coverage per run regardless of hypothesis sampling."""
        for policy in policy_names():
            for fault_key in ("none", "task-oom"):
                payload = _conformance_run(policy, fault_key, {})
                assert payload["violations"] == [], (policy, fault_key)
                assert payload["success"], (policy, fault_key)
