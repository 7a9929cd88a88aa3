"""Cluster experiments: router comparisons over a replica fleet (Figure 10).

Mirrors :mod:`repro.analysis.experiments` one level up: a
:class:`ClusterExperimentConfig` pins every knob of one fleet run, and
:func:`router_comparison_sweep` replays the *same* stamped workload through
the same fleet under each routing policy, so the only varying factor is
placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.hardware.platform import Platform
from repro.serving.cluster import ClusterSimulator
from repro.serving.results import ClusterResult
from repro.serving.routing import Router, available_routers
from repro.serving.server import SimulationLimits
from repro.serving.sla import SLASpec, sla_for_model
from repro.workloads.spec import Workload


@dataclass
class ClusterExperimentConfig:
    """Everything needed to reproduce one cluster serving run.

    Exactly one of ``platform`` (homogeneous fleet) / ``platforms``
    (heterogeneous fleet; replicas cycle through the list in launch order)
    must be set.  ``capacity_scale`` is the scaled-experiment knob for
    heterogeneous fleets: it multiplies each replica's *own* platform
    capacity, preserving the capacity ratios an absolute
    ``token_capacity_override`` would erase.
    """

    platform: Platform | None = None
    num_replicas: int = 4
    scheduler_name: str = "past-future"
    scheduler_kwargs: dict = field(default_factory=dict)
    chunked_prefill_tokens: int | None = None
    token_capacity_override: int | None = None
    capacity_scale: float | None = None
    platforms: Sequence[Platform] | None = None
    limits: SimulationLimits = field(default_factory=SimulationLimits)
    #: event-jump fast path; ``False`` bisects against the reference loop.
    fast_path: bool = True

    @property
    def primary_platform(self) -> Platform:
        """The homogeneous platform, or the first of the heterogeneous cycle."""
        if self.platform is not None:
            return self.platform
        if self.platforms:
            return self.platforms[0]
        raise ValueError("exactly one of platform / platforms is required")

    def build_simulator(self, router: Router | str) -> ClusterSimulator:
        """Instantiate a fresh fleet behind the given router."""
        return ClusterSimulator(
            platform=self.platform,
            num_replicas=self.num_replicas,
            router=router,
            scheduler_name=self.scheduler_name,
            scheduler_kwargs=self.scheduler_kwargs,
            chunked_prefill_tokens=self.chunked_prefill_tokens,
            token_capacity_override=self.token_capacity_override,
            capacity_scale=self.capacity_scale,
            platforms=self.platforms,
            limits=self.limits,
            fast_path=self.fast_path,
        )

    def default_sla(self) -> SLASpec:
        """The paper's SLA preset for the configured model."""
        return sla_for_model(self.primary_platform.model.name)


def run_cluster_experiment(
    config: ClusterExperimentConfig,
    workload: Workload,
    router: Router | str,
    request_rate: float | None = None,
    seed: int = 0,
) -> ClusterResult:
    """Execute one open-loop cluster run.

    The workload should carry recorded arrival times (e.g. from
    :func:`repro.workloads.arrivals.assign_bursty_arrivals`) unless
    ``request_rate`` is given for plain Poisson arrivals.
    """
    simulator = config.build_simulator(router)
    return simulator.run_open_loop(workload, request_rate=request_rate, seed=seed)


def router_comparison_sweep(
    config: ClusterExperimentConfig,
    workload: Workload,
    routers: list[str] | None = None,
    request_rate: float | None = None,
    seed: int = 0,
) -> dict[str, ClusterResult]:
    """Run the same workload under each routing policy (Figure 10 rows).

    Args:
        config: the fleet configuration shared by every run.
        workload: the requests to serve; identical (including arrival times)
            for every router so results are directly comparable.
        routers: router registry names to compare; all of them by default.
    """
    names = routers if routers is not None else available_routers()
    return {
        name: run_cluster_experiment(config, workload, name, request_rate=request_rate, seed=seed)
        for name in names
    }


def fleet_table(results: dict[str, ClusterResult], sla: SLASpec) -> list[dict[str, object]]:
    """Rows for :func:`repro.analysis.tables.render_table`, one per router."""
    rows: list[dict[str, object]] = []
    for name, result in results.items():
        row: dict[str, object] = {"router": name}
        row.update(result.fleet_summary(sla).as_row())
        rows.append(row)
    return rows


def fleet_class_table(
    results: dict[str, ClusterResult], sla: SLASpec
) -> list[dict[str, object]]:
    """Per-router, per-SLA-class rows (the fig12 breakdown).

    Each row carries one class slice of one router's run: goodput, goodput
    per (fleet-wide) replica-second, attainment under the class's own
    deadlines, and rejects attributed to the class.
    """
    rows: list[dict[str, object]] = []
    for name, result in results.items():
        for class_row in result.fleet_summary(sla).class_rows():
            row: dict[str, object] = {"router": name}
            row.update(class_row)
            rows.append(row)
    return rows
