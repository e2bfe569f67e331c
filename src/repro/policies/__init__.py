"""The recovery-policy registry: one name-keyed plugin surface.

Every recovery policy the simulator knows — the five seed systems the
paper compares (stock YARN, ALG, SFM, ALM, ISS) and the related-work
zoo (binocular speculation, ATLAS failure-aware placement, the
statistical straggler detector, M3R in-memory shuffle) — registers
itself here. The CLI (``--policy`` choices, ``chaos --policies``), the
chaos trial sampler, the verify scenario corpus, the workload generator
and the Table-2 experiment sweep all enumerate this registry instead of
hard-coding names, so a new policy module joins every harness for free.

Policy-author contract
----------------------

A policy is a :class:`~repro.mapreduce.recovery.RecoveryPolicy`
subclass plus one :func:`register_policy` call at module import time:

.. code-block:: python

    from repro.policies import register_policy

    class MyPolicy(YarnRecoveryPolicy):
        name = "mine"
        ...

    register_policy("mine", MyPolicy, "one-line description")

Drop the module into ``src/repro/policies/``: the registry discovers
it via ``pkgutil`` and imports it on first use. Factories may declare
optional keyword tuning knobs; :func:`make_policy` passes through only
the kwargs a factory declares, so callers can offer one kwargs
namespace across the whole zoo.

Determinism rules: a policy must not consume wall-clock time or
unseeded randomness, and everything it does must flow through the
simulator — the conformance suite (``tests/test_policy_registry.py``)
re-runs every registered policy under every fault kind and requires
byte-identical trace digests across reruns and across the
``REPRO_SCHEDULER`` implementation modes.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.core import SimulationError

__all__ = [
    "PolicySpec",
    "check_registry",
    "make_policy",
    "policy_names",
    "policy_specs",
    "register_policy",
    "seed_policy_names",
]


@dataclass(frozen=True)
class PolicySpec:
    """One registered recovery policy."""

    name: str
    factory: Callable[..., Any]
    description: str
    #: One of the five original hand-wired systems (the historical
    #: chaos-rotation set; new policies join campaigns via opt-in).
    seed: bool = False
    #: Module that registered the policy (discovery accounting).
    module: str = ""


#: Name -> spec, in registration order. Seed policies register first
#: (``seeds`` is imported before its siblings), so the first five names
#: are always yarn, alg, sfm, alm, iss — the historical rotation order.
_REGISTRY: dict[str, PolicySpec] = {}
_discovered = False


def register_policy(name: str, factory: Callable[..., Any], description: str,
                    *, seed: bool = False) -> PolicySpec:
    """Register a policy factory under ``name`` (import-time API)."""
    if name in _REGISTRY:
        raise SimulationError(f"duplicate policy name {name!r} "
                              f"(already registered by {_REGISTRY[name].module})")
    module = getattr(factory, "__module__", "") or ""
    spec = PolicySpec(name=name, factory=factory, description=description,
                      seed=seed, module=module)
    _REGISTRY[name] = spec
    return spec


def _discover() -> None:
    """Import every policy module exactly once, deterministically:
    ``seeds`` first (pins the historical name order), then the sibling
    modules alphabetically."""
    global _discovered
    if _discovered:
        return
    _discovered = True
    importlib.import_module("repro.policies.seeds")
    for info in sorted(pkgutil.iter_modules(__path__), key=lambda m: m.name):
        if info.name != "seeds":
            importlib.import_module(f"repro.policies.{info.name}")
    # A policy module imported directly before discovery registered
    # ahead of the seeds; put the seeds back in front.
    specs = sorted(_REGISTRY.values(), key=lambda spec: not spec.seed)
    _REGISTRY.clear()
    _REGISTRY.update((spec.name, spec) for spec in specs)


def policy_names() -> tuple[str, ...]:
    """Every registered policy name, seed policies first."""
    _discover()
    return tuple(_REGISTRY)


def seed_policy_names() -> tuple[str, ...]:
    """The five original systems, in the historical rotation order."""
    _discover()
    return tuple(n for n, s in _REGISTRY.items() if s.seed)


def policy_specs() -> tuple[PolicySpec, ...]:
    _discover()
    return tuple(_REGISTRY.values())


def make_policy(name: str, **kwargs: Any):
    """Instantiate the policy registered under ``name``.

    ``kwargs`` is a shared tuning namespace: each factory receives only
    the keywords it declares (so ``make_policy("yarn", fcm_cap=3)`` is
    legal and ignores the knob).
    """
    _discover()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise SimulationError(
            f"unknown policy {name!r}; registered: {', '.join(_REGISTRY)}")
    params = inspect.signature(spec.factory).parameters
    if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
        kwargs = {k: v for k, v in kwargs.items() if k in params}
    return spec.factory(**kwargs)


def check_registry() -> None:
    """Fail loudly when a policy module exists but registered nothing,
    or when the seed set drifted — the CI discovery gate."""
    _discover()
    modules = {info.name for info in pkgutil.iter_modules(__path__)}
    registered_from = {spec.module.rsplit(".", 1)[-1]
                       for spec in _REGISTRY.values()}
    silent = sorted(modules - registered_from)
    if silent:
        raise SimulationError(
            f"policy module(s) registered no policy: {', '.join(silent)}")
    if seed_policy_names() != ("yarn", "alg", "sfm", "alm", "iss"):
        raise SimulationError(
            f"seed policy set drifted: {seed_policy_names()!r}")
