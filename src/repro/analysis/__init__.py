"""Experiment drivers, sweeps, and text-table rendering."""

from repro.analysis.experiments import (
    FleetConfig,
    memory_report_from_run,
    run_experiment,
    run_framework,
    sweep,
)
from repro.analysis.sweep import (
    FrameworkPoint,
    ParameterPoint,
    SweepPoint,
    best_goodput,
    best_throughput,
    client_sweep,
    framework_sweep,
    parameter_sweep,
    scheduler_comparison_sweep,
)
from repro.analysis.tables import (
    autoscale_table,
    fleet_class_table,
    fleet_table,
    render_curves,
    render_table,
)

__all__ = [
    "FleetConfig",
    "memory_report_from_run",
    "run_experiment",
    "run_framework",
    "sweep",
    "FrameworkPoint",
    "ParameterPoint",
    "SweepPoint",
    "best_goodput",
    "best_throughput",
    "client_sweep",
    "framework_sweep",
    "parameter_sweep",
    "scheduler_comparison_sweep",
    "autoscale_table",
    "fleet_class_table",
    "fleet_table",
    "render_curves",
    "render_table",
]
