"""The single-engine serving simulator: a façade over a one-replica fleet.

:class:`ServingSimulator` drives one :class:`InferenceEngine` against a load
generator.  It has no event loop of its own: it builds a
:class:`~repro.serving.cluster.ClusterSimulator` with one fixed replica and
``router=None`` (every arrival goes straight to the replica), runs that
fleet's loop and returns the replica's :class:`RunResult`.  The loop's rules
— arrivals pass the throttle at their arrival time, an arrival at the
engine's clock joins its next iteration, an idle engine jumps to the next
arrival — are therefore the fleet's, documented in
``docs/simulation-semantics.md``.

The single engine is perfectly reliable: fault injection (crashes and
stragglers — :mod:`repro.serving.faults`) is a fleet-level concern,
attached to a fleet with ``FleetConfig(faults=…)`` (:class:`~repro.analysis.experiments.FleetConfig`),
because recovery is meaningless without other replicas to absorb the
displaced work.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.cost_model import CostModel
from repro.hardware.platform import Platform
from repro.obs.tracer import Tracer
from repro.schedulers.base import Scheduler
from repro.serving.clients import ClosedLoopClientPool, OpenLoopArrivals
from repro.serving.cluster import ClusterSimulator, SimulationLimits
from repro.serving.results import RunResult
from repro.serving.throttle import OverloadThrottle
from repro.workloads.arrivals import ArrivalQueue
from repro.workloads.interactions import Interaction, InteractionLoadGenerator
from repro.workloads.spec import Workload


class ServingSimulator:
    """Drives an :class:`InferenceEngine` against a load generator.

    With ``fast_path`` (the default) the engine fuses provably event-free
    decode iterations into vectorized macro-steps, bounded by the next
    scheduled arrival — including saturated phases, where the admission
    scheduler itself proves its next decisions admit nothing
    (:meth:`InferenceEngine.try_jump_any`); ``fast_path=False`` never asks
    it to, so every iteration is the engine's
    :meth:`~InferenceEngine.step`, which is the same code in both modes.
    Results are bit-identical, so the flag is purely a bisection escape
    hatch.

    ``tracer`` attaches an observer (see :mod:`repro.obs`): the simulator
    emits ``replica.launch``, ``request.submit`` and ``request.throttled``
    events and shares the tracer with the engine, which emits the
    queue/admission/token lifecycle and the ``engine.step`` /
    ``engine.jump`` spans.  The default :class:`~repro.obs.tracer.NullTracer`
    keeps every run byte-identical to an untraced one.

    ``prefix_cache_tokens`` is the engine's session prefix-cache budget
    (see :class:`InferenceEngine`).  Cached tokens count in the engine's
    pool, so a budget at or above the pool capacity means the cache is
    bounded only by pool pressure.

    A simulator serves exactly one ``run_*`` call: its engine accumulates
    stats, timelines and scheduler history, so a second call raises
    :class:`RuntimeError`.  Build a fresh simulator per run.
    """

    def __init__(
        self,
        platform: Platform,
        scheduler: Scheduler,
        cost_model: CostModel | None = None,
        chunked_prefill_tokens: int | None = None,
        token_capacity_override: int | None = None,
        limits: SimulationLimits | None = None,
        fast_path: bool = True,
        throttle: OverloadThrottle | None = None,
        tracer: Tracer | None = None,
        prefix_cache_tokens: int | None = None,
    ) -> None:
        self.platform = platform
        self.scheduler = scheduler
        self.fast_path = fast_path
        self.throttle = throttle
        self._fleet: ClusterSimulator | None = ClusterSimulator(
            platform,
            router=None,
            scheduler_factory=lambda: scheduler,
            cost_model=cost_model,
            chunked_prefill_tokens=chunked_prefill_tokens,
            token_capacity_override=token_capacity_override,
            limits=limits,
            fast_path=fast_path,
            throttle=throttle,
            tracer=tracer,
            prefix_cache_tokens=prefix_cache_tokens,
        )
        self.tracer = self._fleet.tracer
        self.limits = self._fleet.limits
        self.engine = self._fleet.replicas[0].engine

    # ---------------------------------------------------------------- running
    def _run(
        self,
        generator: ArrivalQueue,
        load: Workload | Sequence[Interaction],
        workload_name: str,
        num_clients: int,
    ) -> RunResult:
        # The fleet is handed over, so the finished run's request lists are
        # not kept alive by the simulator.
        fleet, self._fleet = self._fleet, None
        if fleet is None:
            raise RuntimeError("ServingSimulator instances are single-use; build a new one per run")
        fleet_result = fleet._run(generator, load, workload_name, num_clients)
        result = fleet_result.replicas[0]
        result.rejected = fleet_result.rejected
        result.reject_reasons = fleet_result.reject_reasons
        return result

    def run_closed_loop(
        self,
        workload: Workload,
        num_clients: int,
        think_time: float = 0.0,
    ) -> RunResult:
        """Serve a workload with a fixed-size closed-loop client pool."""
        pool = ClosedLoopClientPool(workload, num_clients=num_clients, think_time=think_time)
        return self._run(pool, workload, workload.name, num_clients)

    def run_open_loop(
        self,
        workload: Workload,
        request_rate: float | None = None,
        seed: int = 0,
    ) -> RunResult:
        """Serve a workload with open-loop (Poisson or recorded) arrivals."""
        arrivals = OpenLoopArrivals(workload, request_rate=request_rate, seed=seed)
        return self._run(arrivals, workload, workload.name, num_clients=0)

    def run_sessions(
        self,
        interactions: Sequence[Interaction],
        name: str = "interactions",
    ) -> RunResult:
        """Serve multi-turn sessions closed-loop.

        Each interaction's opening turn arrives at its start time; every
        later turn is spawned by its predecessor's completion (plus the
        interaction's think time), so stage *n + 1* always carries the
        accumulated conversation prefix stage *n* just finished.  Pair with
        ``prefix_cache_tokens`` to model KV prefix reuse across turns.
        """
        generator = InteractionLoadGenerator(interactions)
        return self._run(generator, interactions, name, num_clients=len(interactions))
