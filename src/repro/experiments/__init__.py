"""Experiment drivers — one per table/figure in the paper's evaluation.

Every driver is a plain function returning structured rows (lists of
dataclasses) and is used by three consumers: the test suite (shape
assertions), the benchmark harness (regenerating the paper's numbers)
and the examples. ``scale`` rescales input sizes (1.0 = the paper's
sizes) so quick runs and full reproductions share one code path.

:data:`EXPERIMENTS` names each figure once: ``render(driver(scale=S))``
is what ``repro experiment NAME --scale S`` prints and what the
figure's bench reports. Each ``render`` sits next to its driver.
"""

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    run_benchmark_job,
    run_benchmark_trial,
)
from repro.experiments.fig01_recovery import fig01_recovery_time, render as render_fig01
from repro.experiments.fig02_delay import fig02_delayed_execution, render as render_fig02
from repro.experiments.fig03_temporal import fig03_temporal_amplification, render as render_fig03
from repro.experiments.fig04_spatial import fig04_spatial_amplification, render as render_fig04
from repro.experiments.fig08_alg import fig08_alg_task_failure, render as render_fig08
from repro.experiments.fig09_sfm import fig09_sfm_node_failure, render as render_fig09
from repro.experiments.fig10_sfm_trace import fig10_sfm_trace, render as render_fig10
from repro.experiments.fig11_overhead import fig11_alg_overhead, render as render_fig11
from repro.experiments.fig12_frequency import fig12_log_frequency, render as render_fig12
from repro.experiments.fig13_replication import fig13_replication_levels, render as render_fig13
from repro.experiments.fig14_concurrent import fig14_concurrent_failures, render as render_fig14
from repro.experiments.fig15_combined import fig15_sfm_plus_alg, render as render_fig15
from repro.experiments.table2_spatial import table2_spatial_recovery, render as render_table2

#: Experiment name -> (driver, render), in the paper's order.
EXPERIMENTS = {
    "fig01": (fig01_recovery_time, render_fig01),
    "fig02": (fig02_delayed_execution, render_fig02),
    "fig03": (fig03_temporal_amplification, render_fig03),
    "fig04": (fig04_spatial_amplification, render_fig04),
    "fig08": (fig08_alg_task_failure, render_fig08),
    "fig09": (fig09_sfm_node_failure, render_fig09),
    "fig10": (fig10_sfm_trace, render_fig10),
    "fig11": (fig11_alg_overhead, render_fig11),
    "fig12": (fig12_log_frequency, render_fig12),
    "fig13": (fig13_replication_levels, render_fig13),
    "fig14": (fig14_concurrent_failures, render_fig14),
    "fig15": (fig15_sfm_plus_alg, render_fig15),
    "table2": (table2_spatial_recovery, render_table2),
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
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
    "run_benchmark_job",
    "run_benchmark_trial",
    "table2_spatial_recovery",
]
