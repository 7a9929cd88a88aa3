"""One experiment description: :class:`FleetConfig`, :func:`run_experiment`, :func:`sweep`.

Every result the benchmarks and examples report is a :class:`FleetConfig`
run over a workload.  The config pins every knob of one run, so a result is
reproducible from the config alone:

* a single engine is ``num_replicas=1, router=None`` (the defaults) and runs
  through the :class:`~repro.serving.server.ServingSimulator` façade, giving
  a :class:`RunResult`;
* naming a ``router`` makes it a fleet, giving a :class:`ClusterResult`;
  an ``autoscaler`` (:class:`~repro.serving.autoscale.Autoscaler`) makes
  the fleet elastic within ``[1, max_replicas]``, starting
  at ``num_replicas``.  Under a
  :class:`~repro.serving.autoscale.StaticPolicy` the fleet is the
  peak-provisioned baseline: a fixed fleet of ``max_replicas``.

``faults``, ``throttle`` and ``prefix_cache_tokens`` mount a
:class:`~repro.serving.faults.FaultPlan`, an
:class:`~repro.serving.throttle.OverloadThrottle` and a per-replica session
prefix cache.

A load is a :class:`Workload` or a sequence of
:class:`~repro.workloads.interactions.Interaction` sessions.
``num_clients=None`` replays a workload's recorded arrival times open loop
(e.g. from :func:`repro.workloads.arrivals.assign_bursty_arrivals`); an
integer serves it with that many closed-loop clients.  Sessions carry their
own start and think times.  :func:`sweep` replays the *same* load under
several field overrides — routers, autoscaling policies, schedulers — so the
only varying factor is the one they name.

An invalid config raises at construction: the scheduler and a named
router are built once, so an unknown name or keyword raises, and the rest
is checked with the simulator's own message
(:func:`repro.serving.cluster.check_fleet_args`).  An ``autoscaler`` is an
instance, so a misspelled policy name or keyword raises where the caller
builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Mapping, Sequence

from repro.engine.cost_model import CostModel
from repro.frameworks.profiles import FrameworkProfile
from repro.hardware.platform import Platform
from repro.metrics.memory_stats import MemoryReport, build_memory_report
from repro.obs.tracer import Tracer
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import create_scheduler
from repro.serving.autoscale import Autoscaler, StaticPolicy
from repro.serving.clients import check_client_pool_args
from repro.serving.cluster import ClusterSimulator, SimulationLimits, check_fleet_args
from repro.serving.faults import FaultPlan
from repro.serving.results import ClusterResult, RunResult
from repro.serving.routing import Router, create_router
from repro.serving.server import ServingSimulator
from repro.serving.throttle import OverloadThrottle
from repro.workloads.interactions import Interaction
from repro.workloads.spec import Workload

#: What a run serves: a workload, or multi-turn sessions.
Load = Workload | Sequence[Interaction]


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
    ``autoscaler`` and ``faults`` need a fleet.  A ``router``, ``throttle``
    or ``autoscaler`` instance may be shared by configs that run one after
    another: each run starts with its ``on_run_start``.
    """

    platform: Platform | None = None
    platforms: Sequence[Platform] | None = None
    num_replicas: int = 1
    router: Router | str | None = None
    scheduler_name: str = "past-future"
    scheduler_kwargs: Mapping[str, object] = field(default_factory=dict)
    num_clients: int | None = None
    chunked_prefill_tokens: int | None = None
    token_capacity_override: int | None = None
    capacity_scale: float | None = None
    speed_factor: float = 1.0
    autoscaler: Autoscaler | None = None
    limits: SimulationLimits = field(default_factory=SimulationLimits)
    #: event-jump fast path; ``False`` bisects against the reference loop.
    fast_path: bool = True
    faults: FaultPlan | None = None
    throttle: OverloadThrottle | None = None
    prefix_cache_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.num_clients is not None:
            check_client_pool_args(self.num_clients)
        # Building the scheduler and a named router once makes an unknown
        # name or keyword raise here, not when a run starts.
        self.build_scheduler()
        if isinstance(self.router, str):
            create_router(self.router)
        check_fleet_args(
            self.platform,
            self.platforms,
            self.launch_size,
            self.router,
            autoscaler=self.autoscaler,
            faults=self.faults,
            token_capacity_override=self.token_capacity_override,
            capacity_scale=self.capacity_scale,
            explicit_cost_model=self.speed_factor != 1.0,
            prefix_cache_tokens=self.prefix_cache_tokens,
            chunked_prefill_tokens=self.chunked_prefill_tokens,
            speed_factor=self.speed_factor,
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
        """Replicas at time zero: the autoscaler's ``max_replicas`` under a static policy."""
        if self.autoscaler is not None and isinstance(self.autoscaler.policy, StaticPolicy):
            return self.autoscaler.max_replicas
        return self.num_replicas

    def build_scheduler(self) -> Scheduler:
        """Instantiate the configured scheduler."""
        return create_scheduler(self.scheduler_name, **self.scheduler_kwargs)

    def build_cost_model(self) -> CostModel | None:
        """A cost model at ``speed_factor``, or ``None`` for the platform default."""
        if self.speed_factor == 1.0:
            return None
        return CostModel(self.primary_platform, speed_factor=self.speed_factor)

    def build_simulator(self, tracer: Tracer | None = None) -> ServingSimulator | ClusterSimulator:
        """A fresh simulator: the single-engine façade, or a fleet behind ``router``."""
        options = {
            "cost_model": self.build_cost_model(),
            "chunked_prefill_tokens": self.chunked_prefill_tokens,
            "token_capacity_override": self.token_capacity_override,
            "limits": self.limits,
            "fast_path": self.fast_path,
            "throttle": self.throttle,
            "tracer": tracer,
            "prefix_cache_tokens": self.prefix_cache_tokens,
        }
        if self.router is None:
            return ServingSimulator(self.primary_platform, self.build_scheduler(), **options)
        return ClusterSimulator(
            platform=self.platform,
            platforms=self.platforms,
            num_replicas=self.launch_size,
            router=self.router,
            scheduler_name=self.scheduler_name,
            scheduler_kwargs=self.scheduler_kwargs,
            capacity_scale=self.capacity_scale,
            autoscaler=self.autoscaler,
            faults=self.faults,
            **options,
        )


def run_experiment(
    config: FleetConfig, load: Load, tracer: Tracer | None = None
) -> RunResult | ClusterResult:
    """Execute one run: a :class:`RunResult` for one engine, else a :class:`ClusterResult`.

    Args:
        config: the experiment configuration.
        load: a :class:`Workload`, served open or closed loop by
            ``num_clients``, or a sequence of interactions, served as
            closed-loop sessions.
        tracer: optional observer shared with every engine (see
            :mod:`repro.obs`); results are tracer-independent.

    Raises:
        ValueError: before the first step, for sessions under a config that
            sets ``num_clients`` (sessions carry their own think times), and
            for a load with a request no replica could ever hold (see
            :class:`~repro.serving.cluster.ClusterSimulator`).
    """
    if not isinstance(load, Workload) and config.num_clients is not None:
        raise ValueError("sessions carry their own think times; unset num_clients")
    simulator = config.build_simulator(tracer)
    if not isinstance(load, Workload):
        return simulator.run_sessions(load)
    if config.num_clients is None:
        return simulator.run_open_loop(load)
    return simulator.run_closed_loop(load, num_clients=config.num_clients)


def sweep(
    config: FleetConfig,
    load: Load,
    variants: Mapping[Hashable, Mapping[str, object]],
) -> dict[Hashable, RunResult | ClusterResult]:
    """Run the same load under each variant of a base config.

    Args:
        config: the configuration every run shares.
        load: the workload or sessions to serve; identical (arrival times
            included) for every variant, so results are directly comparable.
        variants: mapping of result label to :class:`FleetConfig` field
            overrides, e.g. ``{name: {"router": name} for name in routers}``.

    Every variant config is built before the first run, so an unknown
    field or an invalid variant raises without running anything.
    """
    configs = {label: replace(config, **overrides) for label, overrides in variants.items()}
    return {label: run_experiment(variant, load) for label, variant in configs.items()}


def run_framework(
    profile: FrameworkProfile, config: FleetConfig, workload: Workload
) -> RunResult:
    """Run one framework profile on a single engine (Figure 9 / Table 2 helper).

    The profile's overrides supply the scheduler, the prefill chunk and the
    backend speed; ``config`` supplies the rest.
    """
    result = run_experiment(replace(config, **profile.overrides), workload)
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
