"""Deterministic exponential backoff with hashed jitter.

Retry schedules in the simulator must be *reproducible*: the same
(seed, key) pair must yield the same intervals on every run, on every
platform, regardless of how many other RNG draws happened elsewhere.
So jitter here is not drawn from a shared RNG stream — it is derived
by hashing ``(key, attempt)`` with SHA-256, giving a uniform value in
``[0, 1)`` that is a pure function of its inputs.

Used by the AM->RM allocate retry path and the RM grant-redelivery
loop (:mod:`repro.sim.rpc`); generic enough for any retrying client.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.sim.core import SimulationError

__all__ = ["BackoffPolicy"]


def _hashed_unit(key: str, attempt: int) -> float:
    """Deterministic uniform in [0, 1) from (key, attempt)."""
    digest = hashlib.sha256(f"{key}|{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    The base interval for retry ``attempt`` (0-based) is
    ``base * multiplier**attempt`` capped at ``max_interval``; jitter
    then scales it by ``1 + jitter * (2u - 1)`` where ``u`` is the
    hashed-uniform value for ``(key, attempt)``. The result is clamped
    to ``max_interval`` *after* jitter, so no interval ever exceeds the
    cap.
    """

    base: float = 1.0
    multiplier: float = 2.0
    max_interval: float = 30.0
    max_retries: int = 8
    #: Relative jitter amplitude in [0, 1): 0.2 means +-20%.
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.base <= 0 or self.multiplier < 1.0:
            raise SimulationError("backoff base must be > 0 and multiplier >= 1")
        if self.max_interval < self.base:
            raise SimulationError("max_interval must be >= base")
        if self.max_retries < 0:
            raise SimulationError("max_retries must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise SimulationError("jitter must be in [0, 1)")

    def interval(self, attempt: int, key: str = "") -> float:
        """Delay before retry ``attempt`` (0-based), jittered + capped."""
        if attempt < 0:
            raise SimulationError("attempt must be >= 0")
        raw = min(self.base * self.multiplier**attempt, self.max_interval)
        if self.jitter:
            u = _hashed_unit(key, attempt)
            raw *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return min(raw, self.max_interval)

    def schedule(self, key: str = "") -> list[float]:
        """The full retry schedule: one interval per allowed retry."""
        return [self.interval(i, key) for i in range(self.max_retries)]
