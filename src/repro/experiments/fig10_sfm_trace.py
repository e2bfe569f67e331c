"""Fig. 10 — SFM eliminates temporal amplification.

Same setup as Fig. 3 (Wordcount, 1 ReduceTask, node failure) but under
SFM: on detection, SFM first regenerates the lost MOFs (delaying the
recovery launch by ~18 s) and the recovered ReduceTask suffers no
repeated fetch-failure preemption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Claim
from repro.experiments.fig03_temporal import Fig03Result, fig03_temporal_amplification
from repro.experiments.fig03_temporal import render as render_fig03

__all__ = ["Fig10Result", "claims", "fig10_sfm_trace", "render"]


@dataclass
class Fig10Result:
    yarn: Fig03Result
    sfm: Fig03Result

    @property
    def sfm_eliminates_repeat_failures(self) -> bool:
        return len(self.sfm.repeat_failure_times) == 0

    @property
    def recovery_launch_delay(self) -> float:
        """Time SFM spends regenerating MOFs before the recovered
        ReduceTask becomes effective (paper: ~18 s)."""
        return self.sfm.effective_recovery_start - self.sfm.detect_time


def fig10_sfm_trace(scale: float = 1.0) -> Fig10Result:
    return Fig10Result(
        yarn=fig03_temporal_amplification("yarn", scale),
        sfm=fig03_temporal_amplification("sfm", scale),
    )


def render(res: Fig10Result) -> str:
    return render_fig03(res.sfm, "fig10")


def claims(res: Fig10Result) -> list[Claim]:
    """SFM has no repeated failure where YARN has, finishes first, and
    spends its launch delay regenerating MOFs."""
    return [
        Claim("sfm_repeat_failures", len(res.sfm.repeat_failure_times), hi=0),
        Claim("yarn_repeat_failures", len(res.yarn.repeat_failure_times), lo=1),
        Claim("sfm_over_yarn_job_time", res.sfm.job_time / res.yarn.job_time, hi=0.9),
        Claim("recovery_launch_delay_s", res.recovery_launch_delay, lo=5.0, hi=50.0),
    ]
