"""Campaign kinds and :func:`run_spec`: a campaign is one function of
its durable JSON spec.

A campaign *spec* is a plain JSON document with a ``kind`` field; it is
what the store persists, so resume needs nothing but the store file.
Each kind function validates and normalises its spec and returns the
trial family ``(stored spec, experiment, fn, kwargs, seeds)``.

There is one kind, ``chaos``: a seeded chaos campaign
(:mod:`repro.faults.chaos`) with ``seed``, ``trials`` and optional
``scale``, ``am_faults``, ``policies``, ``hard_timeout`` and
``stall_timeout``. A store row of any other kind (one written before
its kind was retired) still lists and exports, but does not run.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

from repro.campaign.store import CampaignStore, StoreError
from repro.runner import TrialRunner, spec_digest

__all__ = [
    "KINDS",
    "aggregate_chaos",
    "run_spec",
]

Family = tuple[dict[str, Any], str, Callable[..., dict[str, Any]], dict[str, Any], list[int]]


def _require(spec: dict[str, Any], keys: tuple[str, ...]) -> None:
    missing = [k for k in keys if k not in spec]
    if missing:
        raise StoreError(f"{spec['kind']} campaign spec is missing required "
                         f"key(s): {', '.join(missing)}")


def _chaos(spec: dict[str, Any]) -> Family:
    """The one place a chaos spec is normalised and its roster checked."""
    from repro.faults.chaos import run_chaos_trial
    from repro.policies import policy_names

    _require(spec, ("seed", "trials"))
    try:
        seed, trials = int(spec["seed"]), int(spec["trials"])
        scale = float(spec.get("scale", 1.0))
        timeouts = {k: float(spec[k]) for k in ("hard_timeout", "stall_timeout")
                    if k in spec}
    except (TypeError, ValueError) as exc:
        raise StoreError(f"bad chaos campaign spec: {exc}") from None
    if trials < 1 or not 0 < scale < float("inf"):
        raise StoreError(f"chaos campaign needs trials >= 1 and a positive scale, "
                         f"got trials={trials} scale={scale}")
    policies = [str(p) for p in spec.get("policies") or ()]
    registered = policy_names()
    unknown = [p for p in policies if p not in registered]
    if unknown:
        raise StoreError(f"unknown policy {', '.join(map(repr, unknown))}; "
                         f"registered: {', '.join(registered)}")
    am_faults = bool(spec.get("am_faults", False))
    stored = {"kind": "chaos", "seed": seed, "trials": trials, "scale": scale,
              "am_faults": am_faults}
    campaign: dict[str, Any] = {"seed": seed, "scale": scale}
    experiment = f"chaos:{seed}:{scale}"
    if am_faults:
        campaign["am_faults"] = True
        experiment += ":am"
    if policies:
        # Optional keys enter the spec only when given, so historical
        # campaign ids (and their stored trials) stay stable.
        stored["policies"] = campaign["policies"] = policies
        experiment += ":" + ",".join(policies)
    stored.update(timeouts)
    campaign.update(timeouts)
    return stored, experiment, run_chaos_trial, {"campaign": campaign}, list(range(trials))


#: Campaign kind -> the function turning its spec into a trial family.
KINDS: dict[str, Callable[[dict[str, Any]], Family]] = {
    "chaos": _chaos,
}


def run_spec(spec: dict[str, Any], store: CampaignStore, jobs: int = 1) -> dict[str, Any]:
    """Register the campaign ``spec`` describes in ``store`` and run its
    seeds to completion across ``jobs`` worker processes.

    Seeds run in fifo waves of ``max(16, 4 * jobs)`` through a
    :class:`~repro.runner.TrialRunner` backed by ``store``: trials the
    store already holds are cache hits (``skipped``), every fresh trial
    (``executed``) is recorded as it completes, and a SIGKILL loses at
    most the wave in flight. On ``KeyboardInterrupt`` or a raising trial
    the campaign row records the error and the exception propagates;
    running the same spec again resumes where it stopped.

    A spec the kind cannot run is a :class:`StoreError` raised before
    anything is registered.
    """
    kind = KINDS.get(str(spec.get("kind")))
    if kind is None:
        raise StoreError(f"unknown campaign kind {spec.get('kind')!r}; "
                         f"choose from {sorted(KINDS)}")
    spec, experiment, fn, kwargs, seeds = kind(spec)
    campaign_id = spec_digest(experiment, fn, kwargs)
    store.register(campaign_id, spec)
    runner = TrialRunner(jobs=jobs, store=store)
    wave = max(16, 4 * jobs)
    executed = skipped = 0
    t0 = time.perf_counter()
    try:
        for start in range(0, len(seeds), wave):
            results = runner.run(experiment, fn, seeds[start:start + wave], kwargs)
            hits = sum(r.cached for r in results)
            skipped += hits
            executed += len(results) - hits
    except (Exception, KeyboardInterrupt) as exc:
        error = ("interrupted" if isinstance(exc, KeyboardInterrupt)
                 else f"{type(exc).__name__}: {exc}")
        store.mark_status(campaign_id, "running", error)
        raise
    store.mark_status(campaign_id, "complete")
    return {
        "spec": spec,
        "campaign_id": campaign_id,
        "trials": len(seeds),
        "executed": executed,
        "skipped": skipped,
        "wall_seconds": round(time.perf_counter() - t0, 3),
    }


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
