"""Campaign kinds: from a durable JSON spec to a runnable plan.

A campaign *spec* is a plain JSON document with a ``kind`` field; it is
what the store persists, so resume needs nothing but the store file:
``build_plan(stored_spec)`` reconstructs the exact trial family.

Kinds:

``chaos``
    a seeded chaos campaign (:mod:`repro.faults.chaos`): ``seed``,
    ``trials``, ``scale``;
``verify-matrix``
    the differential scenario × implementation matrix
    (:mod:`repro.verify.differential`): a ``jobs`` list of
    ``[scenario, kernel, scheduler, mutate]`` rows.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.campaign.scheduler import CampaignPlan
from repro.campaign.store import StoreError

__all__ = [
    "aggregate_chaos",
    "aggregate_payloads",
    "build_plan",
]


def _chaos_plan(spec: dict[str, Any]) -> CampaignPlan:
    from repro.faults.chaos import run_chaos_trial

    seed = int(spec["seed"])
    trials = int(spec["trials"])
    scale = float(spec.get("scale", 1.0))
    am_faults = bool(spec.get("am_faults", False))
    policies = tuple(str(p) for p in (spec.get("policies") or ()))
    campaign = {"seed": seed, "scale": scale}
    if am_faults:
        campaign["am_faults"] = True
    if policies:
        # Explicit roster only: its absence keeps historical specs (and
        # their experiment keys / cached trials) byte-stable.
        campaign["policies"] = list(policies)
    for key in ("hard_timeout", "stall_timeout"):
        if key in spec:
            campaign[key] = float(spec[key])
    plan_spec = dict(spec, kind="chaos", seed=seed, trials=trials, scale=scale,
                     am_faults=am_faults)
    experiment = f"chaos:{seed}:{scale}" + (":am" if am_faults else "")
    if policies:
        plan_spec["policies"] = list(policies)
        experiment += ":" + ",".join(policies)
    return CampaignPlan(
        spec=plan_spec,
        experiment=experiment,
        fn=run_chaos_trial,
        kwargs={"campaign": campaign},
        seeds=list(range(trials)),
    )


def _matrix_plan(spec: dict[str, Any]) -> CampaignPlan:
    from repro.verify.differential import run_matrix_trial

    jobs = tuple(tuple(row) for row in spec["jobs"])
    return CampaignPlan(
        spec=dict(spec, kind="verify-matrix", jobs=[list(row) for row in jobs]),
        experiment="verify-matrix",
        fn=run_matrix_trial,
        kwargs={"jobs": jobs},
        seeds=list(range(len(jobs))),
    )


_KINDS: dict[str, Callable[[dict[str, Any]], CampaignPlan]] = {
    "chaos": _chaos_plan,
    "verify-matrix": _matrix_plan,
}


def build_plan(spec: dict[str, Any]) -> CampaignPlan:
    """Materialise a campaign spec as a runnable plan."""
    kind = spec.get("kind")
    builder = _KINDS.get(kind)
    if builder is None:
        raise StoreError(
            f"unknown campaign kind {kind!r}; choose from {sorted(_KINDS)}")
    return builder(spec)


# -- incremental aggregation -------------------------------------------------

def aggregate_chaos(payloads: Iterable[tuple[int, dict[str, Any]]]) -> dict[str, Any]:
    """Fold chaos trial payloads one row at a time (stream straight off
    the store cursor — a 100k-trial campaign never materialises in
    memory) into the campaign summary counters."""
    by_policy: dict[str, int] = {}
    by_kind: dict[str, int] = {}
    violating: list[int] = []
    jobs_failed = 0
    digests: list[str] = []
    done = 0
    for _seed, payload in payloads:
        done += 1
        spec = payload["spec"]
        by_policy[spec["policy"]] = by_policy.get(spec["policy"], 0) + 1
        for f in spec["faults"]:
            by_kind[f["kind"]] = by_kind.get(f["kind"], 0) + 1
        if not payload["success"]:
            jobs_failed += 1
        if payload["violations"]:
            violating.append(spec["index"])
        digests.append(payload["digest"])
    return {
        "done": done,
        "violations": len(violating),
        "violating_trials": violating,
        "jobs_failed": jobs_failed,
        "by_policy": by_policy,
        "by_kind": by_kind,
        "digests": digests,
    }


def aggregate_payloads(kind: str,
                       payloads: Iterable[tuple[int, dict[str, Any]]],
                       ) -> dict[str, Any]:
    """Kind-aware incremental aggregation for ``campaign status`` /
    ``export``: chaos campaigns get the full counter summary, everything
    else a generic success/digest fold."""
    if kind == "chaos":
        return aggregate_chaos(payloads)
    done = succeeded = 0
    for _seed, payload in payloads:
        done += 1
        if payload.get("success", True):
            succeeded += 1
    return {"done": done, "succeeded": succeeded}
