"""Trial execution layer: parallel seeded fan-out, memoization and
determinism verification for every experiment driver."""

from repro.runner.runner import (
    DeterminismError,
    TrialError,
    TrialResult,
    TrialRunner,
    atomic_write_text,
    jobs_from_env,
    shutdown_pools,
    spec_digest,
)

__all__ = [
    "DeterminismError",
    "TrialError",
    "TrialResult",
    "TrialRunner",
    "atomic_write_text",
    "jobs_from_env",
    "shutdown_pools",
    "spec_digest",
]
