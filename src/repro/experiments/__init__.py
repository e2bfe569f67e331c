"""Experiment drivers — one per table/figure in the paper's evaluation,
plus the ablations of ALM's design choices and the §I fleet argument.

Every driver is a plain function returning structured rows (lists of
dataclasses) and is used by three consumers: the test suite, the CLI
(``repro experiment`` and the paper layer of ``repro verify``) and the
examples. ``scale`` rescales input sizes (1.0 = the paper's
sizes) so quick runs and full reproductions share one code path.

:data:`EXPERIMENTS` names each row once: ``render(driver(scale=S))``
is what ``repro experiment NAME --scale S`` prints, and
``claims(driver(scale=1.0))`` are the row's paper-shape claims that
``repro verify`` checks. Each ``render`` and ``claims`` sits
next to its driver.
"""

import sys

from repro.experiments.common import (
    Claim,
    ExperimentConfig,
    format_table,
    run_benchmark_job,
    run_benchmark_trial,
)
from repro.experiments.ablations import ablations
from repro.experiments.fig01_recovery import fig01_recovery_time
from repro.experiments.fig02_delay import fig02_delayed_execution
from repro.experiments.fig03_temporal import fig03_temporal_amplification
from repro.experiments.fig04_spatial import fig04_spatial_amplification
from repro.experiments.fig08_alg import fig08_alg_task_failure
from repro.experiments.fig09_sfm import fig09_sfm_node_failure
from repro.experiments.fig10_sfm_trace import fig10_sfm_trace
from repro.experiments.fig11_overhead import fig11_alg_overhead
from repro.experiments.fig12_frequency import fig12_log_frequency
from repro.experiments.fig13_replication import fig13_replication_levels
from repro.experiments.fig14_concurrent import fig14_concurrent_failures
from repro.experiments.fig15_combined import fig15_sfm_plus_alg
from repro.experiments.motivation import motivation_fleet
from repro.experiments.table2_spatial import table2_spatial_recovery


def _row(driver):
    """``(driver, render, claims)``: a figure's driver and the ``render``
    and ``claims`` defined next to it in its module."""
    module = sys.modules[driver.__module__]
    return driver, module.render, module.claims


#: Experiment name -> (driver, render, claims): the paper's figures and
#: tables in its order, then the ablations of ALM's design choices and
#: the §I fleet argument.
EXPERIMENTS = {
    "fig01": _row(fig01_recovery_time),
    "fig02": _row(fig02_delayed_execution),
    "fig03": _row(fig03_temporal_amplification),
    "fig04": _row(fig04_spatial_amplification),
    "fig08": _row(fig08_alg_task_failure),
    "fig09": _row(fig09_sfm_node_failure),
    "fig10": _row(fig10_sfm_trace),
    "fig11": _row(fig11_alg_overhead),
    "fig12": _row(fig12_log_frequency),
    "fig13": _row(fig13_replication_levels),
    "fig14": _row(fig14_concurrent_failures),
    "fig15": _row(fig15_sfm_plus_alg),
    "table2": _row(table2_spatial_recovery),
    "ablations": _row(ablations),
    "motivation": _row(motivation_fleet),
}

__all__ = [
    "EXPERIMENTS",
    "Claim",
    "ExperimentConfig",
    "ablations",
    "fig01_recovery_time",
    "fig02_delayed_execution",
    "fig03_temporal_amplification",
    "fig04_spatial_amplification",
    "fig08_alg_task_failure",
    "fig09_sfm_node_failure",
    "fig10_sfm_trace",
    "fig11_alg_overhead",
    "fig12_log_frequency",
    "fig13_replication_levels",
    "fig14_concurrent_failures",
    "fig15_sfm_plus_alg",
    "format_table",
    "motivation_fleet",
    "run_benchmark_job",
    "run_benchmark_trial",
    "table2_spatial_recovery",
]
