"""The campaign scheduler: register a plan in the
:class:`~repro.campaign.store.CampaignStore`, then run its seeds in fifo
waves through a :class:`~repro.runner.TrialRunner` backed by that store.
Trials the store already holds are cache hits, and every fresh trial is
recorded as it completes, so a killed campaign resumes from where it
died and re-runs nothing.

Waves are ``max(16, 4 * jobs)`` seeds: the checkpoint granularity under
parallel fan-out is one worker chunk of one wave, so a SIGKILL loses at
most the wave in flight — never completed, recorded trials.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.campaign.store import CampaignStore, StoreError
from repro.runner import TrialRunner, spec_digest

__all__ = ["CampaignPlan", "CampaignScheduler", "StoreError"]


@dataclass
class CampaignPlan:
    """Everything the scheduler needs to run (or resume) a campaign:
    the durable JSON ``spec`` it was built from, the runner trial family
    ``(experiment, fn, kwargs)``, and the seeds to run, in order."""

    spec: dict[str, Any]
    experiment: str
    fn: Callable[..., dict[str, Any]]
    kwargs: dict[str, Any] = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)

    def campaign_id(self) -> str:
        """The durable identity: the runner's ``spec_digest`` of the
        trial family (which also folds in the implementation-mode
        environment). ``None`` — an unnameable fn/kwargs — cannot be
        durably keyed, so it is a hard error here rather than a silent
        cache skip as in the runner."""
        digest = spec_digest(self.experiment, self.fn, self.kwargs)
        if digest is None:
            raise StoreError(
                f"campaign {self.experiment!r} is not durable: its trial "
                "function or kwargs have no stable name (lambda/closure?)")
        return digest


class CampaignScheduler:
    """Runs a :class:`CampaignPlan` through a :class:`TrialRunner`
    backed by ``store``."""

    def __init__(self, store: CampaignStore) -> None:
        self.store = store
        self.runner = TrialRunner(store=store)
        self.batch_size = max(16, 4 * self.runner.jobs)

    def run(self, plan: CampaignPlan, echo: Callable[[str], None] = lambda _: None,
            ) -> dict[str, Any]:
        """Run ``plan`` to completion. Returns a summary with
        ``executed`` (fresh runs) and ``skipped`` (store hits) counts. On
        ``KeyboardInterrupt`` (or a raising trial) the campaign is
        checkpointed — completed trials are already recorded — and the
        exception re-raised; a later :meth:`run` of the same plan picks
        up where it stopped.
        """
        campaign_id = plan.campaign_id()
        self.store.register(campaign_id, plan.spec)
        executed = skipped = 0
        t0 = time.perf_counter()
        try:
            for start in range(0, len(plan.seeds), self.batch_size):
                wave = plan.seeds[start:start + self.batch_size]
                results = self.runner.run(plan.experiment, plan.fn, wave, plan.kwargs)
                hits = sum(r.cached for r in results)
                skipped += hits
                executed += len(wave) - hits
                echo(f"  campaign {campaign_id[:12]}: "
                     f"{start + len(wave)}/{len(plan.seeds)} trials done")
        except KeyboardInterrupt:
            self.store.mark_status(campaign_id, "running", "interrupted")
            raise
        except Exception as exc:
            self.store.mark_status(campaign_id, "running",
                                   f"{type(exc).__name__}: {exc}")
            raise

        self.store.mark_status(campaign_id, "complete")
        wall = time.perf_counter() - t0
        return {
            "campaign_id": campaign_id,
            "experiment": plan.experiment,
            "trials": len(plan.seeds),
            "executed": executed,
            "skipped": skipped,
            "wall_seconds": round(wall, 3),
            "trials_per_sec": round(executed / wall, 3) if wall > 0 else 0.0,
            "status": "complete",
        }
