"""Parameter sweeps: goodput vs client count, scheduler-parameter trade-offs.

These drive the paper's sweep-style figures:

* Figure 7 — goodput as the number of concurrent clients grows, per scheduler;
* Figure 8 — decoding steps vs evicted-request fraction as scheduler
  parameters vary on a shifting workload;
* Figure 9 — maximum throughput and goodput per framework.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.analysis.experiments import (
    FleetConfig,
    memory_report_from_run,
    run_experiment,
    run_framework,
    sweep,
)
from repro.frameworks.profiles import FrameworkProfile
from repro.serving.sla import SLASpec
from repro.workloads.spec import Workload


@dataclass(frozen=True)
class SweepPoint:
    """One point of a goodput-vs-clients curve."""

    scheduler: str
    num_clients: int
    goodput: float
    throughput: float
    compliance_rate: float
    evictions: int


def client_sweep(
    config: FleetConfig,
    workload: Workload,
    client_counts: Sequence[int],
    sla: SLASpec,
) -> list[SweepPoint]:
    """Run the same workload at several concurrency levels (Figure 7 curves)."""
    points: list[SweepPoint] = []
    for num_clients in client_counts:
        run_config = replace(config, num_clients=num_clients)
        result = run_experiment(run_config, workload)
        summary = result.throughput_summary(sla)
        points.append(
            SweepPoint(
                scheduler=result.scheduler,
                num_clients=num_clients,
                goodput=summary.goodput,
                throughput=summary.throughput,
                compliance_rate=summary.compliance_rate,
                evictions=result.total_evictions,
            )
        )
    return points


def scheduler_comparison_sweep(
    config: FleetConfig,
    workload: Workload,
    client_counts: Sequence[int],
    scheduler_configs: Mapping[str, Mapping[str, object]],
    sla: SLASpec,
) -> dict[str, list[SweepPoint]]:
    """Figure-7 style comparison: one goodput curve per scheduler config.

    Args:
        config: the single-engine configuration every curve shares.
        scheduler_configs: mapping of curve label to :class:`FleetConfig`
            field overrides, e.g.
            ``{"scheduler_name": ..., "scheduler_kwargs": {...}}``.

    Every curve's config is built before the first run, as in :func:`sweep`.
    """
    configs = {
        label: replace(config, **overrides) for label, overrides in scheduler_configs.items()
    }
    return {
        label: client_sweep(curve_config, workload, client_counts, sla=sla)
        for label, curve_config in configs.items()
    }


@dataclass(frozen=True)
class ParameterPoint:
    """One point of the Figure-8 decoding-steps vs evicted-requests trade-off."""

    scheduler: str
    parameter: str
    decoding_steps: int
    evicted_fraction: float
    consumed_memory_fraction: float

    def as_row(self) -> dict[str, object]:
        """Dictionary row for table rendering."""
        return {
            "scheduler": self.scheduler,
            "parameter": self.parameter,
            "decoding_steps": self.decoding_steps,
            "evicted_requests": f"{self.evicted_fraction:.1%}",
            "consumed_memory": f"{self.consumed_memory_fraction:.1%}",
        }


def parameter_sweep(
    config: FleetConfig,
    workload: Workload,
    variants: Mapping[str, Mapping[str, object]],
) -> list[ParameterPoint]:
    """Sweep scheduler parameters on a fixed workload (Figure 8 / Table 1).

    Args:
        config: the single-engine configuration every point shares.
        variants: mapping of point label to :class:`FleetConfig` field
            overrides, as in :func:`sweep`.
    """
    points: list[ParameterPoint] = []
    for label, result in sweep(config, workload, variants).items():
        report = memory_report_from_run(result)
        points.append(
            ParameterPoint(
                scheduler=report.scheduler,
                parameter=label,
                decoding_steps=report.decoding_steps,
                evicted_fraction=report.evicted_request_fraction,
                consumed_memory_fraction=report.consumed_memory_fraction,
            )
        )
    return points


@dataclass(frozen=True)
class FrameworkPoint:
    """Throughput and goodput of one framework at one concurrency level."""

    framework: str
    num_clients: int
    throughput: float
    goodput: float


def framework_sweep(
    profiles: Sequence[FrameworkProfile],
    config: FleetConfig,
    workload: Workload,
    client_counts: Sequence[int],
    sla: SLASpec,
) -> dict[str, list[FrameworkPoint]]:
    """Figure-9 style framework comparison across concurrency levels."""
    curves: dict[str, list[FrameworkPoint]] = {}
    for profile in profiles:
        points: list[FrameworkPoint] = []
        for num_clients in client_counts:
            result = run_framework(profile, replace(config, num_clients=num_clients), workload)
            summary = result.throughput_summary(sla)
            points.append(
                FrameworkPoint(
                    framework=profile.name,
                    num_clients=num_clients,
                    throughput=summary.throughput,
                    goodput=summary.goodput,
                )
            )
        curves[profile.name] = points
    return curves


def best_goodput(points: Sequence[SweepPoint | FrameworkPoint]) -> float:
    """The best goodput across a sweep (the paper reports curve maxima)."""
    return max((p.goodput for p in points), default=0.0)


def best_throughput(points: Sequence[FrameworkPoint]) -> float:
    """The best raw throughput across a sweep."""
    return max((p.throughput for p in points), default=0.0)
