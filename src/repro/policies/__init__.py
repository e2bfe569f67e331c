"""The recovery-policy table: one name-keyed surface for every policy.

Every recovery policy the simulator knows — the five seed systems the
paper compares (stock YARN, ALG, SFM, ALM, ISS) and the related-work
zoo (ATLAS failure-aware placement, binocular speculation, M3R
in-memory shuffle, the statistical straggler detector) — is one row of
:data:`POLICIES`. The CLI (``--policy`` choices, ``chaos --policies``),
the chaos trial sampler, the verify scenario corpus, the workload
generator and the Table-2 experiment sweep all enumerate this table
instead of hard-coding names, so a new row joins every harness.

Policy-author contract
----------------------

A policy is a :class:`~repro.mapreduce.recovery.RecoveryPolicy`
subclass in a module of this package plus one factory; adding it means
adding the module and one row to :data:`POLICIES`. Rows keep their
order: the first five are the historical chaos rotation
(``repro.faults.chaos.CHAOS_POLICIES``), and chaos rotations and
campaign ids index the whole tuple, so a new row goes at the end.
Factories may declare optional keyword tuning knobs; :func:`make_policy`
passes through only the kwargs a factory declares, so callers can offer
one kwargs namespace across the whole zoo.

Determinism rules: a policy must not consume wall-clock time or
unseeded randomness, and everything it does must flow through the
simulator — the conformance suite (``tests/test_policy_registry.py``)
re-runs every policy under every fault kind and requires byte-identical
trace digests across reruns and across the ``REPRO_SCHEDULER``
implementation modes.
"""

from __future__ import annotations

import inspect
from typing import Any

from repro.policies.atlas import make_atlas
from repro.policies.binocular import make_binocular
from repro.policies.m3r import make_m3r
from repro.policies.quantile import make_quantile
from repro.policies.seeds import make_alg, make_alm, make_iss, make_sfm, make_yarn
from repro.sim.core import SimulationError

__all__ = ["POLICIES", "make_policy", "policy_names"]

#: Name -> (factory, one-line description), in enumeration order.
POLICIES = {
    "yarn": (make_yarn,
             "stock YARN re-execution (the paper's amplification baseline)"),
    "alg": (make_alg,
            "analytics logging: reduce attempts resume from local/HDFS logs"),
    "sfm": (make_sfm,
            "speculative fast migration: proactive MOF regeneration + "
            "FCM recovery attempts"),
    "alm": (make_alm, "the full ALM framework (ALG + SFM)"),
    "iss": (make_iss, "intermediate-data replication (Ko et al. SoCC'10)"),
    "atlas": (make_atlas,
              "failure-aware placement: sliding-window node outcome "
              "history vetoes chronically failing nodes"),
    "binocular": (make_binocular,
                  "dual recovery eyes per failed reduce: same-node state "
                  "re-adoption + speculative migration"),
    "m3r": (make_m3r,
            "M3R in-memory shuffle: no spills on the happy path, "
            "eager map regeneration on node loss"),
    "quantile": (make_quantile,
                 "statistical straggler detector: Tukey-fence cutoff over "
                 "peer durations replaces the fixed LATE threshold"),
}


def policy_names() -> tuple[str, ...]:
    """Every policy name, the five seed systems first."""
    return tuple(POLICIES)


def make_policy(name: str, **kwargs: Any):
    """Instantiate the policy named ``name``.

    ``kwargs`` is a shared tuning namespace: each factory receives only
    the keywords it declares (so ``make_policy("yarn", fcm_cap=3)`` is
    legal and ignores the knob).
    """
    row = POLICIES.get(name)
    if row is None:
        raise SimulationError(
            f"unknown policy {name!r}; registered: {', '.join(POLICIES)}")
    factory = row[0]
    params = inspect.signature(factory).parameters
    if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
        kwargs = {k: v for k, v in kwargs.items() if k in params}
    return factory(**kwargs)
