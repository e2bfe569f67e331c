"""The §I motivating claim, measured: a trace-like fleet of jobs on a
shared cluster suffers node failures; stock YARN amplifies them into
ReduceTask failures and heavy delays, ALM contains them.

(Not a paper figure — it operationalises the Kavulya-trace argument the
introduction builds on.)
"""

from repro.experiments import format_table
from repro.experiments.motivation import motivation_fleet


def test_motivation_fleet(benchmark, report):
    # Fixed small scale: the fleet runs 4 whole shared-cluster
    # simulations (clean+faulty x 2 policies); the claim is qualitative
    # and does not need paper-sized inputs.
    scale = 0.3
    results = benchmark.pedantic(
        motivation_fleet, rounds=1, iterations=1,
        kwargs={"num_jobs": 5, "scale": scale})
    rows = []
    for name, r in results.items():
        rows.append((name, r.mean_slowdown, r.worst_slowdown,
                     r.delayed_jobs(), r.failed_jobs, r.total_reduce_failures))
    report("Motivation — trace-like fleet under node failures", format_table(
        ["policy", "mean slowdown", "worst slowdown", "delayed >1.3x",
         "failed jobs", "reduce task failures"],
        rows,
    ), scale)
    yarn, alm = results["yarn"], results["alm"]
    # ALM contains the damage: fewer reducer casualties and milder
    # fleet-level slowdown under identical failures.
    assert alm.total_reduce_failures <= yarn.total_reduce_failures
    assert alm.mean_slowdown <= yarn.mean_slowdown
    assert alm.failed_jobs <= yarn.failed_jobs
