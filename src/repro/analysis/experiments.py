"""One experiment description: :class:`FleetConfig`, :func:`run_experiment`, :func:`sweep`.

Every result the benchmarks and examples report is a :class:`FleetConfig`
run over a workload.  The config pins every knob of one run, so a result is
reproducible from the config alone:

* a single engine is ``num_replicas=1, router=None`` (the defaults) and runs
  through the :class:`~repro.serving.server.ServingSimulator` façade, giving
  a :class:`RunResult`;
* naming a ``router`` makes it a fleet, giving a :class:`ClusterResult`;
  naming an ``autoscale`` policy makes the fleet elastic within
  ``[min_replicas, max_replicas]``, starting at ``num_replicas``.  The
  ``static`` policy is the peak-provisioned baseline: a fixed fleet of
  ``max_replicas``.

``num_clients=None`` replays the workload's recorded arrival times open loop
(e.g. from :func:`repro.workloads.arrivals.assign_bursty_arrivals`); an
integer serves it with that many closed-loop clients.  :func:`sweep` replays
the *same* workload under several field overrides — routers, autoscaling
policies, schedulers — so the only varying factor is the one they name.

An invalid config raises at construction, with the simulator's own message
(:func:`repro.serving.cluster.check_fleet_args`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Mapping, Sequence

from repro.engine.cost_model import CostModel
from repro.frameworks.profiles import FrameworkProfile
from repro.hardware.platform import Platform
from repro.metrics.memory_stats import MemoryReport, build_memory_report
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import create_scheduler
from repro.serving.autoscale import Autoscaler, create_autoscale_policy
from repro.serving.cluster import ClusterSimulator, SimulationLimits, check_fleet_args
from repro.serving.results import ClusterResult, RunResult
from repro.serving.routing import Router
from repro.serving.server import ServingSimulator
from repro.serving.sla import SLASpec, sla_for_model
from repro.workloads.spec import Workload


@dataclass(frozen=True)
class FleetConfig:
    """Everything needed to reproduce one serving run, engine or fleet.

    Exactly one of ``platform`` (homogeneous) / ``platforms``
    (heterogeneous; replicas cycle through the list in launch order,
    autoscaler launches included) must be set.  ``capacity_scale``
    multiplies each fleet replica's *own* platform capacity, preserving the
    capacity ratios an absolute ``token_capacity_override`` would erase; a
    single engine sizes its pool with ``token_capacity_override``.
    ``speed_factor`` scales the cost model's latency (homogeneous only).
    ``autoscale_kwargs`` are the ``autoscale`` policy's constructor
    overrides, so a sweep variant sets the two together.
    """

    platform: Platform | None = None
    platforms: Sequence[Platform] | None = None
    num_replicas: int = 1
    router: Router | str | None = None
    scheduler_name: str = "past-future"
    scheduler_kwargs: Mapping[str, object] = field(default_factory=dict)
    num_clients: int | None = None
    think_time: float = 0.0
    chunked_prefill_tokens: int | None = None
    token_capacity_override: int | None = None
    capacity_scale: float | None = None
    speed_factor: float = 1.0
    autoscale: str | None = None
    autoscale_kwargs: Mapping[str, object] = field(default_factory=dict)
    min_replicas: int = 1
    max_replicas: int = 6
    decision_interval: float = 1.0
    warmup_delay: float = 2.0
    sample_window: float = 5.0
    limits: SimulationLimits = field(default_factory=SimulationLimits)
    #: event-jump fast path; ``False`` bisects against the reference loop.
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.autoscale_kwargs and self.autoscale is None:
            raise ValueError("autoscale_kwargs configure the autoscale policy; none is set")
        # ``build_autoscaler`` builds the policy, so an unknown policy name
        # or keyword raises here.
        check_fleet_args(
            self.platform,
            self.platforms,
            self.launch_size,
            self.router,
            autoscaler=self.build_autoscaler(),
            token_capacity_override=self.token_capacity_override,
            capacity_scale=self.capacity_scale,
            explicit_cost_model=self.speed_factor != 1.0,
        )
        if self.router is None and self.capacity_scale is not None:
            raise ValueError(
                "capacity_scale sizes fleet replicas; a single engine takes "
                "token_capacity_override"
            )

    @property
    def primary_platform(self) -> Platform:
        """The homogeneous platform, or the first of the heterogeneous cycle."""
        return self.platform if self.platform is not None else self.platforms[0]

    @property
    def launch_size(self) -> int:
        """Replicas at time zero: ``max_replicas`` under the static policy."""
        return self.max_replicas if self.autoscale == "static" else self.num_replicas

    def default_sla(self) -> SLASpec:
        """The paper's SLA preset for the configured model."""
        return sla_for_model(self.primary_platform.model.name)

    def build_scheduler(self) -> Scheduler:
        """Instantiate the configured scheduler."""
        return create_scheduler(self.scheduler_name, **self.scheduler_kwargs)

    def build_cost_model(self) -> CostModel | None:
        """A cost model at ``speed_factor``, or ``None`` for the platform default."""
        if self.speed_factor == 1.0:
            return None
        return CostModel(self.primary_platform, speed_factor=self.speed_factor)

    def build_autoscaler(self) -> Autoscaler | None:
        """A fresh autoscaler around the configured policy, or ``None``."""
        if self.autoscale is None:
            return None
        return Autoscaler(
            policy=create_autoscale_policy(self.autoscale, **self.autoscale_kwargs),
            interval=self.decision_interval,
            min_replicas=self.min_replicas,
            max_replicas=self.max_replicas,
            warmup_delay=self.warmup_delay,
            sample_window=self.sample_window,
        )

    def build_simulator(
        self, scheduler: Scheduler | None = None
    ) -> ServingSimulator | ClusterSimulator:
        """A fresh simulator: the single-engine façade, or a fleet behind ``router``.

        Args:
            scheduler: pre-built scheduler instance for a single engine
                (e.g. a framework profile's); built from the config if
                omitted.  A fleet builds one per replica from
                ``scheduler_name``.
        """
        if self.router is None:
            return ServingSimulator(
                platform=self.primary_platform,
                scheduler=scheduler or self.build_scheduler(),
                cost_model=self.build_cost_model(),
                chunked_prefill_tokens=self.chunked_prefill_tokens,
                token_capacity_override=self.token_capacity_override,
                limits=self.limits,
                fast_path=self.fast_path,
            )
        if scheduler is not None:
            raise ValueError("a scheduler instance serves one engine; fleets build theirs by name")
        return ClusterSimulator(
            platform=self.platform,
            platforms=self.platforms,
            num_replicas=self.launch_size,
            router=self.router,
            scheduler_name=self.scheduler_name,
            scheduler_kwargs=self.scheduler_kwargs,
            cost_model=self.build_cost_model(),
            chunked_prefill_tokens=self.chunked_prefill_tokens,
            token_capacity_override=self.token_capacity_override,
            capacity_scale=self.capacity_scale,
            autoscaler=self.build_autoscaler(),
            limits=self.limits,
            fast_path=self.fast_path,
        )


def run_experiment(
    config: FleetConfig,
    workload: Workload,
    scheduler: Scheduler | None = None,
) -> RunResult | ClusterResult:
    """Execute one run: a :class:`RunResult` for one engine, else a :class:`ClusterResult`.

    Args:
        config: the experiment configuration.
        workload: the requests to serve.
        scheduler: pre-built single-engine scheduler (see
            :meth:`FleetConfig.build_simulator`).
    """
    simulator = config.build_simulator(scheduler)
    if config.num_clients is None:
        return simulator.run_open_loop(workload)
    return simulator.run_closed_loop(
        workload, num_clients=config.num_clients, think_time=config.think_time
    )


def sweep(
    config: FleetConfig,
    workload: Workload,
    variants: Mapping[Hashable, Mapping[str, object]],
) -> dict[Hashable, RunResult | ClusterResult]:
    """Run the same workload under each variant of a base config.

    Args:
        config: the configuration every run shares.
        workload: the requests to serve; identical (arrival times included)
            for every variant, so results are directly comparable.
        variants: mapping of result label to :class:`FleetConfig` field
            overrides, e.g. ``{name: {"router": name} for name in routers}``.

    Every variant config is built before the first run, so an unknown
    field or an invalid variant raises without running anything.
    """
    configs = {label: replace(config, **overrides) for label, overrides in variants.items()}
    return {label: run_experiment(variant, workload) for label, variant in configs.items()}


def run_framework(
    profile: FrameworkProfile, config: FleetConfig, workload: Workload
) -> RunResult:
    """Run one framework profile on a single engine (Figure 9 / Table 2 helper).

    The profile supplies the scheduler, the prefill chunk and the backend
    speed; ``config`` supplies the rest.
    """
    config = replace(
        config,
        chunked_prefill_tokens=profile.chunked_prefill_tokens,
        speed_factor=profile.speed_factor,
    )
    result = run_experiment(config, workload, scheduler=profile.build_scheduler())
    result.scheduler = profile.name
    return result


def memory_report_from_run(result: RunResult) -> MemoryReport:
    """Build the Table-1 style memory report from a finished run."""
    if result.memory_timeline is None:
        raise ValueError("run has no memory timeline")
    return build_memory_report(
        scheduler=result.scheduler,
        workload=result.workload,
        stats=result.engine_stats,
        timeline=result.memory_timeline,
        requests=result.requests,
    )
