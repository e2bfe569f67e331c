"""Durable, resumable campaign orchestration.

The paper's thesis — restart-from-scratch recovery amplifies failures;
log progress so recovery resumes instead of repeating — applied to our
own harness. The sqlite trial store (:mod:`~repro.campaign.store`) is
the one log of completed trials: the :class:`~repro.runner.TrialRunner`
loads from it and records into it as each trial completes. The
scheduler (:mod:`~repro.campaign.scheduler`) registers a campaign and
runs its seeds in fifo waves through a runner backed by the store, and
campaign kinds (:mod:`~repro.campaign.plans`) rebuild a runnable plan
from nothing but the stored spec, so

    python -m repro campaign resume --store sweeps.db

picks a killed 100k-trial sweep up exactly where it died, re-running
nothing that already completed.
"""

from repro.campaign.plans import (
    aggregate_chaos,
    aggregate_payloads,
    build_plan,
)
from repro.campaign.scheduler import CampaignPlan, CampaignScheduler
from repro.campaign.store import CampaignStore, StoreError, open_store

__all__ = [
    "CampaignPlan",
    "CampaignScheduler",
    "CampaignStore",
    "StoreError",
    "aggregate_chaos",
    "aggregate_payloads",
    "build_plan",
    "open_store",
]
