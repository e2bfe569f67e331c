"""Fig. 10 — SFM eliminates temporal amplification.

Same setup as Fig. 3 (Wordcount, 1 ReduceTask, node failure) but under
SFM: on detection, SFM first regenerates the lost MOFs (delaying the
recovery launch by ~18 s) and the recovered ReduceTask suffers no
repeated fetch-failure preemption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.fig03_temporal import Fig03Result, fig03_temporal_amplification
from repro.experiments.fig03_temporal import render as render_fig03

__all__ = ["Fig10Result", "fig10_sfm_trace", "render"]


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
