"""Trial execution layer: parallel seeded fan-out and memoization for
every experiment driver and campaign."""

from repro.runner.runner import (
    TrialError,
    TrialResult,
    TrialRunner,
    atomic_write_text,
    shutdown_pools,
    spec_digest,
)

__all__ = [
    "TrialError",
    "TrialResult",
    "TrialRunner",
    "atomic_write_text",
    "shutdown_pools",
    "spec_digest",
]
