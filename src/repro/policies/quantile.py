"""Statistical straggler detection: a quantile model replaces LATE's
fixed slowness multiplier.

Stock speculation (``repro.mapreduce.speculation``) flags a task when
its estimated finish exceeds ``slowness_threshold x mean`` — a fixed
multiplier that over-fires on naturally skewed phases and under-fires
when one outlier drags the mean up with it. The quantile detector fits
the peer-duration distribution instead and speculates only above the
Tukey upper fence ``Q3 + k * IQR``, the textbook outlier boundary:
robust to the outlier itself (quantiles don't move when one value
explodes) and self-calibrating to each phase's natural spread.

Only the cutoff computation changes — the scan cadence, the finish-time
estimates (``Speculator._estimates``), the duplicate cap and the
``speculation`` trace record are all inherited, so the detector slots
into the same digest-pinned machinery the stock scanner uses.
"""

from __future__ import annotations

from repro.mapreduce.recovery import YarnRecoveryPolicy
from repro.mapreduce.speculation import SpeculationConfig, Speculator
from repro.sim.core import SimulationError

__all__ = ["QuantilePolicy", "QuantileSpeculator", "make_quantile",
           "quantile", "tukey_fence"]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method), in pure
    Python: the samples are a handful of per-task estimates."""
    if not values:
        raise SimulationError("quantile of empty sample")
    if not 0.0 <= q <= 1.0:
        raise SimulationError("q must be in [0, 1]")
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] * (1.0 - frac) + s[hi] * frac


def tukey_fence(values: list[float], k: float = 1.5) -> float:
    """Tukey's upper outlier fence: ``Q3 + k * (Q3 - Q1)``."""
    q1 = quantile(values, 0.25)
    q3 = quantile(values, 0.75)
    return q3 + k * (q3 - q1)


class QuantileSpeculator(Speculator):
    """The stock scanner with a distribution-fit cutoff."""

    def __init__(self, am, config: SpeculationConfig | None = None, *,
                 min_samples: int = 4, fence_k: float = 1.5) -> None:
        super().__init__(am, config)
        if min_samples < 2:
            raise SimulationError("min_samples must be >= 2")
        self.min_samples = min_samples
        self.fence_k = fence_k

    def _cutoff(self, estimates, completed):
        # Prefer completed peers (their durations are facts, not
        # projections); fall back to the running estimates only when
        # enough of them exist to sketch a distribution.
        sample = (completed if len(completed) >= self.min_samples
                  else [e for e, _ in estimates])
        if len(sample) < self.min_samples:
            return None
        benchmark = sum(sample) / len(sample)
        return tukey_fence(sample, self.fence_k), benchmark


class QuantilePolicy(YarnRecoveryPolicy):
    """Stock recovery; speculation via the quantile detector."""

    name = "quantile"

    def __init__(self, min_samples: int = 4, fence_k: float = 1.5) -> None:
        super().__init__()
        self.min_samples = min_samples
        self.fence_k = fence_k

    def make_speculator(self, am, config=None):
        return QuantileSpeculator(am, config, min_samples=self.min_samples,
                                  fence_k=self.fence_k)


def make_quantile(min_samples: int = 4, fence_k: float = 1.5):
    return QuantilePolicy(min_samples=min_samples, fence_k=fence_k)
