"""Single-run experiment driver: workload x platform x scheduler -> RunResult.

This is the common entry point the benchmarks and examples share.  An
:class:`ExperimentConfig` pins every knob of one run (so results are
reproducible from the config alone); :func:`run_experiment` builds the
simulator and executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cost_model import CostModel
from repro.engine.eviction import EvictionPolicy
from repro.frameworks.profiles import FrameworkProfile
from repro.hardware.platform import Platform, paper_platform
from repro.metrics.memory_stats import MemoryReport, build_memory_report
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import create_scheduler
from repro.serving.results import RunResult
from repro.serving.server import ServingSimulator, SimulationLimits
from repro.serving.sla import SLASpec, sla_for_model
from repro.workloads.spec import Workload


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one serving run."""

    platform: Platform
    scheduler_name: str = "past-future"
    scheduler_kwargs: dict = field(default_factory=dict)
    num_clients: int = 32
    think_time: float = 0.0
    chunked_prefill_tokens: int | None = None
    token_capacity_override: int | None = None
    speed_factor: float = 1.0
    limits: SimulationLimits = field(default_factory=SimulationLimits)
    #: event-jump fast path; ``False`` bisects against the reference loop.
    fast_path: bool = True

    def build_scheduler(self) -> Scheduler:
        """Instantiate the configured scheduler."""
        return create_scheduler(self.scheduler_name, **self.scheduler_kwargs)

    def build_cost_model(self) -> CostModel:
        """Instantiate the cost model with the configured speed factor."""
        return CostModel(self.platform, speed_factor=self.speed_factor)

    def default_sla(self) -> SLASpec:
        """The paper's SLA preset for the configured model."""
        return sla_for_model(self.platform.model.name)


def run_experiment(
    config: ExperimentConfig,
    workload: Workload,
    scheduler: Scheduler | None = None,
    eviction_policy: EvictionPolicy | None = None,
) -> RunResult:
    """Execute one closed-loop serving run.

    Args:
        config: the experiment configuration.
        workload: the requests to serve.
        scheduler: pre-built scheduler instance; built from the config if
            omitted (passing one lets callers reuse a configured object, e.g.
            a framework profile's scheduler).
        eviction_policy: override for the engine's eviction policy.
    """
    scheduler = scheduler or config.build_scheduler()
    simulator = ServingSimulator(
        platform=config.platform,
        scheduler=scheduler,
        cost_model=config.build_cost_model(),
        eviction_policy=eviction_policy,
        chunked_prefill_tokens=config.chunked_prefill_tokens,
        token_capacity_override=config.token_capacity_override,
        limits=config.limits,
        fast_path=config.fast_path,
    )
    return simulator.run_closed_loop(
        workload,
        num_clients=config.num_clients,
        think_time=config.think_time,
    )


def run_framework(
    profile: FrameworkProfile,
    platform: Platform,
    workload: Workload,
    num_clients: int,
    token_capacity_override: int | None = None,
    limits: SimulationLimits | None = None,
) -> RunResult:
    """Run one framework profile end to end (Figure 9 / Table 2 helper)."""
    config = ExperimentConfig(
        platform=platform,
        num_clients=num_clients,
        chunked_prefill_tokens=profile.chunked_prefill_tokens,
        token_capacity_override=token_capacity_override,
        speed_factor=profile.speed_factor,
        limits=limits or SimulationLimits(),
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


def quick_platform(key: str = "7b-a100") -> Platform:
    """Shortcut to one of the paper's named platforms (defaults to 7B on A100)."""
    return paper_platform(key)
