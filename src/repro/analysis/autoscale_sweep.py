"""Autoscaling experiments: policy comparisons over an elastic fleet (Fig 11).

Mirrors :mod:`repro.analysis.cluster_sweep` one level up: an
:class:`AutoscaleExperimentConfig` pins every knob of one elastic-fleet run,
and :func:`autoscale_comparison_sweep` replays the *same* stamped workload
under each autoscaling policy, so the only varying factor is how the fleet
is sized over time.  The headline metric is **goodput per replica-second**
(see :meth:`repro.serving.results.ClusterResult.goodput_per_replica_second`):
raw goodput divides by wall-clock, which forgives a peak-provisioned static
fleet for idling through every lull.

The ``static`` policy is run as the peak-provisioned baseline — a fixed fleet
of ``max_replicas`` — while elastic policies start at ``initial_replicas``
and move within ``[min_replicas, max_replicas]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.hardware.platform import Platform
from repro.serving.autoscale import (
    Autoscaler,
    AutoscalerPolicy,
    available_autoscale_policies,
    create_autoscale_policy,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.results import ClusterResult
from repro.serving.routing import Router
from repro.serving.server import SimulationLimits
from repro.serving.sla import SLASpec, sla_for_model
from repro.workloads.spec import Workload


@dataclass
class AutoscaleExperimentConfig:
    """Everything needed to reproduce one elastic-fleet serving run.

    Exactly one of ``platform`` / ``platforms`` must be set; with
    ``platforms`` the elastic fleet is heterogeneous — launches (including
    autoscaler scale-ups) cycle through the platform list, and the
    predictive policy sizes the fleet in capacity units rather than replica
    counts.  ``capacity_scale`` scales each replica's own platform capacity
    (see :class:`repro.analysis.cluster_sweep.ClusterExperimentConfig`).
    """

    platform: Platform | None = None
    router: Router | str = "least-outstanding"
    initial_replicas: int = 2
    min_replicas: int = 1
    max_replicas: int = 6
    decision_interval: float = 1.0
    warmup_delay: float = 2.0
    sample_window: float = 5.0
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

    def build_autoscaler(self, policy: AutoscalerPolicy | str, **policy_kwargs) -> Autoscaler:
        """Instantiate a fresh autoscaler around the given policy."""
        if isinstance(policy, str):
            policy = create_autoscale_policy(policy, **policy_kwargs)
        elif policy_kwargs:
            raise ValueError("policy_kwargs only apply when policy is a registry name")
        return Autoscaler(
            policy=policy,
            interval=self.decision_interval,
            min_replicas=self.min_replicas,
            max_replicas=self.max_replicas,
            warmup_delay=self.warmup_delay,
            sample_window=self.sample_window,
        )

    def build_simulator(
        self, policy: AutoscalerPolicy | str, **policy_kwargs
    ) -> ClusterSimulator:
        """Instantiate a fresh elastic fleet governed by the given policy.

        The ``static`` policy gets a fixed peak fleet of ``max_replicas``;
        elastic policies start at ``initial_replicas``.
        """
        autoscaler = self.build_autoscaler(policy, **policy_kwargs)
        static = autoscaler.policy.name == "static"
        return ClusterSimulator(
            platform=self.platform,
            num_replicas=self.max_replicas if static else self.initial_replicas,
            router=self.router,
            scheduler_name=self.scheduler_name,
            scheduler_kwargs=self.scheduler_kwargs,
            chunked_prefill_tokens=self.chunked_prefill_tokens,
            token_capacity_override=self.token_capacity_override,
            capacity_scale=self.capacity_scale,
            platforms=self.platforms,
            autoscaler=autoscaler,
            limits=self.limits,
            fast_path=self.fast_path,
        )

    def default_sla(self) -> SLASpec:
        """The paper's SLA preset for the configured model."""
        return sla_for_model(self.primary_platform.model.name)


def run_autoscale_experiment(
    config: AutoscaleExperimentConfig,
    workload: Workload,
    policy: AutoscalerPolicy | str,
    request_rate: float | None = None,
    seed: int = 0,
    **policy_kwargs,
) -> ClusterResult:
    """Execute one open-loop elastic-fleet run.

    The workload should carry recorded arrival times (e.g. from
    :func:`repro.workloads.arrivals.assign_bursty_arrivals`) unless
    ``request_rate`` is given for plain Poisson arrivals.
    """
    simulator = config.build_simulator(policy, **policy_kwargs)
    return simulator.run_open_loop(workload, request_rate=request_rate, seed=seed)


def autoscale_comparison_sweep(
    config: AutoscaleExperimentConfig,
    workload: Workload,
    policies: list[str] | None = None,
    policy_kwargs: dict[str, dict] | None = None,
    request_rate: float | None = None,
    seed: int = 0,
) -> dict[str, ClusterResult]:
    """Run the same workload under each autoscaling policy (Figure 11 rows).

    Args:
        config: the fleet configuration shared by every run.
        workload: the requests to serve; identical (including arrival times)
            for every policy so results are directly comparable.
        policies: policy registry names to compare; all of them by default.
        policy_kwargs: optional per-policy constructor overrides, keyed by
            registry name.
    """
    names = policies if policies is not None else available_autoscale_policies()
    overrides = policy_kwargs or {}
    return {
        name: run_autoscale_experiment(
            config,
            workload,
            name,
            request_rate=request_rate,
            seed=seed,
            **overrides.get(name, {}),
        )
        for name in names
    }


def autoscale_table(results: dict[str, ClusterResult], sla: SLASpec) -> list[dict[str, object]]:
    """Rows for :func:`repro.analysis.tables.render_table`, one per policy."""
    rows: list[dict[str, object]] = []
    for name, result in results.items():
        summary = result.fleet_summary(sla)
        rows.append(
            {
                "policy": name,
                "goodput_per_rs": round(summary.goodput_per_replica_second, 2),
                "goodput_tok_s": round(summary.goodput, 1),
                "replica_s": round(summary.replica_seconds, 1),
                "avg_fleet": round(summary.avg_fleet_size, 2),
                "peak_fleet": max(
                    (sample.provisioned for sample in result.fleet_timeline), default=0
                ),
                "launched": result.num_replicas,
                "sla_attainment": f"{summary.sla_attainment:.1%}",
                "p99_ttft_s": round(summary.p99_ttft, 3),
                "rejected": summary.rejected_requests,
            }
        )
    return rows
