"""Fig. 10 — SFM eliminates temporal amplification.

Paper: on detecting the failure (~116 s), SFM first regenerates the
lost MOFs (delaying the recovery launch by ~18 s); the recovered
ReduceTask suffers no repeated timeouts/preemptions.
"""


def test_fig10_sfm_trace(figure):
    res = figure("fig10", "Fig. 10 — SFM recovery timeline vs stock YARN")
    print(f"YARN: {len(res.yarn.repeat_failure_times)} repeat failures, "
          f"job {res.yarn.job_time:.1f} s; SFM recovery-launch delay (MOF "
          f"regeneration) {res.recovery_launch_delay:.1f} s (paper: ~18 s)")
    assert res.sfm_eliminates_repeat_failures
    assert len(res.yarn.repeat_failure_times) >= 1
    assert res.sfm.job_time < res.yarn.job_time
    assert 0.0 < res.recovery_launch_delay < 60.0
