"""Durable, resumable campaign orchestration.

The paper's thesis — restart-from-scratch recovery amplifies failures;
log progress so recovery resumes instead of repeating — applied to our
own harness. The sqlite trial store (:mod:`~repro.campaign.store`) is
the one log of completed trials: the :class:`~repro.runner.TrialRunner`
loads from it and records into it as each trial completes. A campaign
is one function of its stored spec: :func:`run_spec`
(:mod:`~repro.campaign.plans`) maps the spec's kind to its trial
family, registers the campaign and runs its seeds in fifo waves through
a runner backed by the store, so

    python -m repro campaign resume --store sweeps.db

picks a killed 100k-trial sweep up exactly where it died, re-running
nothing that already completed.
"""

from repro.campaign.plans import aggregate_chaos, run_spec
from repro.campaign.store import CampaignStore, StoreError, open_store

__all__ = [
    "CampaignStore",
    "StoreError",
    "aggregate_chaos",
    "open_store",
    "run_spec",
]
