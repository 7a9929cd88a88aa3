"""The serving simulator's one event loop: a fleet of engines behind a router.

:class:`ClusterSimulator` owns a dynamic set of independent
:class:`~repro.engine.engine.InferenceEngine` instances — each with its own
admission scheduler, KV-cache pool and clock — plus one
:class:`~repro.serving.routing.Router` and, optionally, one
:class:`~repro.serving.autoscale.Autoscaler` that grows and shrinks the fleet
during the run.  The same per-replica signal the past-future scheduler uses
(predicted future memory) becomes a placement signal: send each arriving
request to the replica whose batch has the most predicted headroom.  Fleets
may be **heterogeneous**: pass ``platforms=[a100, a100, rtx4090]`` and
replicas cycle through the platform list as they launch, each with its own
KV capacity, cost model, and relative decode speed — all visible to routers
via the per-replica :class:`~repro.serving.routing.ReplicaView`.

The single-engine :class:`~repro.serving.server.ServingSimulator` is a façade
over this loop: one fixed replica with ``router=None``, where every arrival
goes straight to the replica and no view is built.

The router only places: it returns the id of one routable replica, and
that replica's scheduler decides when the request is admitted.  A request
leaves the fleet unserved only through the throttle or a fault (reported in
:attr:`~repro.serving.results.ClusterResult.rejected` with per-reason
counts).  Retries and arrivals that find every replica still warming are
parked and routed again later; the request's arrival timestamp
— and therefore its TTFT — still counts from the original arrival.

The simulation is event-driven over six event types:

1. **warm-up completion** — a launched replica finishes its warm-up delay and
   becomes routable;
2. **fault action** — an instant of the attached
   :class:`~repro.serving.faults.FaultPlan` arrives: a replica crash (all
   resident and queued work aborted and, under the plan's
   :class:`~repro.serving.faults.RetryPolicy`, re-dispatched) or a straggler
   window boundary (cost-model slowdown on/off);
3. **autoscale decision** — the autoscaler evaluates its policy on the fixed
   decision interval; scale-up launches warming replicas, scale-down drains
   the least-loaded active replica (no new placements, resident work runs to
   completion, then it retires);
4. **arrival** — the next request of the load generator arrives, passes the
   throttle at its arrival time, and the router places it over a
   :class:`~repro.serving.routing.ReplicaView` per *routable* replica;
5. **retry** — a parked request (retried, or waiting for a warming replica)
   reaches its ``retry_at`` instant and is routed again;
6. **replica step** — the replica with the earliest local clock among those
   with work (active or draining) runs one continuous-batching iteration,
   advancing its clock by the iteration's modelled latency.

Replica clocks advance independently (real replicas do not share a decode
cadence); the fleet makespan is the latest replica clock when the run drains.
Replica ids are assigned at launch and never reused, so after any scale-down
the routable id set is non-contiguous — routers must treat
``ReplicaView.replica_id`` as an opaque key, and the simulator raises if a
router routes to the id of a warming, draining, or retired replica.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.cost_model import CostModel, check_engine_settings
from repro.engine.engine import InferenceEngine
from repro.engine.request import Request
from repro.hardware.platform import Platform, ensure_single_model
from repro.metrics.fleet import FleetSizeSample, ReplicaLifetime
from repro.obs import events as obs
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import create_scheduler
from repro.serving.autoscale import Autoscaler
from repro.serving.clients import ClosedLoopClientPool, OpenLoopArrivals
from repro.serving.faults import (
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    REASON_NO_REPLICAS,
    REASON_REPLICA_CRASH,
    REASON_RETRIES_EXHAUSTED,
    REASON_UNROUTED,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    SlowdownCostModel,
)
from repro.serving.results import ClusterResult, RunResult
from repro.serving.routing import ReplicaView, Router, create_router
from repro.serving.throttle import OverloadThrottle
from repro.workloads.arrivals import ArrivalQueue
from repro.workloads.interactions import Interaction, InteractionLoadGenerator
from repro.workloads.spec import RequestSpec, Workload


@dataclass
class SimulationLimits:
    """Safety bounds so misconfigured runs terminate."""

    max_steps: int = 2_000_000
    max_time: float = 1_000_000.0

    def __post_init__(self) -> None:
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be at least 1")
        if not self.max_time > 0:
            raise ValueError("max_time must be positive (inf disables the time limit)")

    def reached(self, steps: int, clock: float) -> str | None:
        """The limit a run at ``steps`` iterations and ``clock`` has hit, if any."""
        if steps >= self.max_steps:
            return "max_steps"
        if clock >= self.max_time:
            return "max_time"
        return None


def _submit_attrs(spec: RequestSpec) -> dict:
    """``request.submit`` payload: prompt size plus any tenant identity."""
    attrs: dict = {"prompt_tokens": spec.prompt_tokens}
    if spec.user_id is not None:
        attrs["user_id"] = spec.user_id
    if spec.app_id is not None:
        attrs["app_id"] = spec.app_id
    if spec.sla_class:
        attrs["sla_class"] = spec.sla_class
    return attrs


class ReplicaState(enum.Enum):
    """Lifecycle of one replica inside the fleet."""

    #: launched but still inside its warm-up delay; not routable.
    WARMING = "warming"
    #: routable and serving.
    ACTIVE = "active"
    #: finishing resident work before retiring; not routable.
    DRAINING = "draining"
    #: fully drained and released; accrues no further replica-seconds.
    RETIRED = "retired"
    #: crashed; its in-flight work was aborted and it accrues no further
    #: replica-seconds.
    DEAD = "dead"


@dataclass(kw_only=True)
class _Replica:
    """One engine, its clock and stall guard, and the fleet's bookkeeping around it."""

    index: int
    engine: InferenceEngine
    platform: Platform
    speed_factor: float = 1.0
    state: ReplicaState = ReplicaState.ACTIVE
    launched_at: float = 0.0
    ready_at: float = 0.0
    retired_at: float | None = None
    #: original cost model while a straggler slowdown wrapper is installed;
    #: the replica reports ``degraded`` health while it is set.
    saved_cost_model: CostModel | None = None
    #: the replica's simulation clock; replica clocks advance independently.
    clock: float = 0.0
    #: consecutive idle iterations (the stall guard).
    idle_streak: int = 0
    #: every request placed on the replica, in submission order.
    requests: list[Request] = field(default_factory=list)

    def advance(
        self,
        limits: SimulationLimits,
        steps: int,
        horizon: float | None = None,
        jump: bool = True,
    ) -> tuple[int, Sequence[Request], str | None]:
        """Advance the engine by one event jump or, failing that, one iteration.

        With ``jump`` the engine first tries to fuse decode iterations up to
        ``horizon``, the earliest external event that could observe it
        (:meth:`InferenceEngine.try_jump_any`).  No request finishes inside a
        jump, so completions cannot schedule new arrivals mid-macro-step and
        the horizon stays complete knowledge of future events.  Otherwise one
        reference :meth:`InferenceEngine.step` runs.  ``steps`` is the run's
        iteration count so far, summed over every replica.

        Returns ``(iterations advanced, finished requests, stop reason)``.  A
        stop reason ends the run incomplete: ``"max_steps"`` or
        ``"max_time"`` when it reached ``limits``, or ``"stall"`` when three
        idle iterations in a row while requests wait mean no admission is
        possible (a scheduler that never admits), so the simulation stops
        instead of spinning forever.  It is ``None`` while the run may go on.
        The caller handles the finished requests before it stops.
        """
        if jump:
            jumped = self.engine.try_jump_any(
                self.clock,
                horizon=horizon,
                max_steps=limits.max_steps - steps,
                max_time=limits.max_time,
            )
            if jumped is not None:
                self.clock = jumped.end_time
                self.idle_streak = 0
                return jumped.steps, (), limits.reached(steps + jumped.steps, self.clock)
        result = self.engine.step(self.clock)
        if result.duration > 0:
            self.clock = result.end_time
        self.idle_streak = self.idle_streak + 1 if result.was_idle else 0
        if self.idle_streak >= 3:
            return 1, result.finished, "stall"
        return 1, result.finished, limits.reached(steps + 1, self.clock)

    def run_result(self, workload: str, num_clients: int, termination: str) -> RunResult:
        """The replica's :class:`RunResult` at its clock."""
        engine = self.engine
        return RunResult(
            scheduler=engine.scheduler.describe(),
            workload=workload,
            platform=engine.platform.describe(),
            num_clients=num_clients,
            duration=self.clock,
            requests=self.requests,
            engine_stats=engine.stats,
            memory_timeline=engine.memory_timeline,
            token_capacity=engine.token_capacity,
            termination=termination,
            jump_stats=engine.jump_stats,
            prefix_stats=engine.prefix_cache.stats if engine.prefix_cache is not None else None,
        )

    @property
    def routable(self) -> bool:
        """Whether the router may place new work here."""
        return self.state is ReplicaState.ACTIVE

    @property
    def steppable(self) -> bool:
        """Whether the replica runs iterations (active or draining)."""
        return self.state in (ReplicaState.ACTIVE, ReplicaState.DRAINING)

    def lifetime(self) -> ReplicaLifetime:
        """Provisioned interval for replica-seconds accounting."""
        return ReplicaLifetime(
            replica_id=self.index,
            launched_at=self.launched_at,
            ready_at=self.ready_at,
            retired_at=self.retired_at,
        )

    def snapshot(self) -> ReplicaView:
        """Scheduler-visible state handed to the router."""
        engine = self.engine
        requests = [*engine.batch, *engine.waiting]
        return ReplicaView(
            replica_id=self.index,
            token_capacity=engine.token_capacity,
            used_tokens=engine.pool.used_tokens,
            current_tokens=tuple([r.current_context_tokens for r in requests]),
            generated_tokens=tuple([r.generated_tokens for r in requests]),
            remaining_cap_tokens=tuple([r.remaining_cap_tokens for r in requests]),
            num_running=len(engine.batch),
            platform=self.platform,
            speed_factor=self.speed_factor,
            health=HEALTH_HEALTHY if self.saved_cost_model is None else HEALTH_DEGRADED,
        )


@dataclass(frozen=True)
class _DeferredArrival:
    """One parked request (retry or warming wait), keyed for the retry heap."""

    retry_at: float
    sequence: int
    spec: RequestSpec
    arrived_at: float

    def __lt__(self, other: "_DeferredArrival") -> bool:
        return (self.retry_at, self.sequence) < (other.retry_at, other.sequence)


def check_fleet_args(
    platform: Platform | None,
    platforms: Sequence[Platform] | None,
    num_replicas: int,
    router: Router | str | None,
    autoscaler: Autoscaler | None = None,
    faults: FaultPlan | None = None,
    token_capacity_override: int | None = None,
    capacity_scale: float | None = None,
    explicit_cost_model: bool = False,
    prefix_cache_tokens: int | None = None,
    chunked_prefill_tokens: int | None = None,
    speed_factor: float | None = None,
) -> list[Platform]:
    """Validate a fleet's constructor arguments and return its platform cycle.

    :class:`ClusterSimulator` runs this on its keywords, and
    :class:`repro.analysis.experiments.FleetConfig` on the same arguments at
    construction, so an invalid experiment fails before it runs, with the
    simulator's own message.

    Raises:
        ValueError: naming the first inconsistent argument.
        PlatformError: if the platforms serve more than one model.
    """
    if (platform is None) == (platforms is None):
        raise ValueError("exactly one of platform / platforms is required")
    if platforms is not None and not platforms:
        raise ValueError("platforms must not be empty")
    if num_replicas <= 0:
        raise ValueError("num_replicas must be positive")
    if autoscaler is not None and num_replicas > autoscaler.max_replicas:
        raise ValueError(
            f"num_replicas must start within the autoscaler's [1, {autoscaler.max_replicas}] bounds"
        )
    if router is None and (num_replicas != 1 or autoscaler is not None or faults is not None):
        raise ValueError(
            "router=None serves one fixed replica: it needs num_replicas=1, "
            "no autoscaler and no faults"
        )
    if token_capacity_override is not None and capacity_scale is not None:
        raise ValueError("token_capacity_override and capacity_scale are mutually exclusive")
    check_engine_settings(
        speed_factor=speed_factor,
        token_capacity_override=token_capacity_override,
        chunked_prefill_tokens=chunked_prefill_tokens,
        capacity_scale=capacity_scale,
    )
    if prefix_cache_tokens is not None and prefix_cache_tokens <= 0:
        raise ValueError("prefix_cache_tokens must be positive when set")
    fleet = list(platforms) if platforms is not None else [platform]
    ensure_single_model(fleet)
    if explicit_cost_model and len(fleet) > 1:
        raise ValueError(
            "an explicit cost_model only applies to homogeneous fleets; "
            "heterogeneous replicas derive per-platform cost models"
        )
    return fleet


class ClusterSimulator:
    """Drives an (optionally elastic, optionally heterogeneous) engine fleet.

    A cluster serves exactly one ``run_*`` call: its engines accumulate
    stats, timelines and scheduler history, so a second call raises
    :class:`RuntimeError`.  Build a fresh simulator per run.  Each ``run_*``
    raises :class:`ValueError` before the first step if any request of the
    load (any session turn, counted with its accumulated prefix) needs more
    KV tokens than the largest replica can hold — whether or not the
    throttle or an abandoned session would have kept it from a replica.

    Args:
        platform: deployment target shared by every replica (homogeneous
            fleet); exactly one of ``platform`` / ``platforms`` is required.
        num_replicas: initial number of independent engines; with an
            ``autoscaler`` this is only the starting size.
        router: placement policy, as a :class:`Router` instance or a registry
            name (``round-robin``, ``least-outstanding``, ``least-kv-load``,
            ``memory-aware``, ``session-affinity``).  ``None`` places every
            arrival on the one fixed replica without building a view; it
            requires ``num_replicas=1``, no ``autoscaler`` and no ``faults``.
        scheduler_name: per-replica admission scheduler registry name; each
            replica gets its *own* scheduler instance so history-based
            policies learn only from their replica's completions.
        scheduler_kwargs: forwarded to every scheduler constructor.
        scheduler_factory: overrides ``scheduler_name``/``scheduler_kwargs``
            with an arbitrary per-replica scheduler builder (also used for
            replicas launched mid-run by the autoscaler, which come up cold:
            fresh engine, empty scheduler history).
        cost_model: explicit latency model; homogeneous fleets only (each
            heterogeneous replica derives its own from its platform).
        chunked_prefill_tokens: per-iteration prefill-token cap per replica.
        token_capacity_override: replaces each replica's KV token capacity
            with one absolute value (scaled homogeneous experiments).
        capacity_scale: multiplies each replica's *own* platform capacity
            instead — the scaled-experiment knob for heterogeneous fleets,
            where one absolute override would erase the capacity differences
            under study.  Mutually exclusive with ``token_capacity_override``.
        platforms: per-replica deployment targets for a heterogeneous fleet.
            Replicas cycle through this list in launch order (the initial
            fleet and every autoscaler launch), so a two-entry list behind a
            six-replica fleet alternates platforms.  All platforms must serve
            the same model.
        autoscaler: elastic-fleet driver (see
            :mod:`repro.serving.autoscale`); ``None`` keeps the fleet fixed
            at ``num_replicas``.
        limits: safety bounds over the whole fleet (``max_steps`` counts
            iterations summed across replicas).
        fast_path: let replicas fuse provably event-free decode iterations
            into macro-steps (see :meth:`InferenceEngine.try_jump_any`,
            which covers empty and non-empty waiting queues), bounded
            so every cross-replica observation point (arrival routing,
            autoscale decisions, warm-up completions, retries, and
            arrivals spawned by other replicas' completions) sees
            bit-identical state; ``False`` forces the reference
            one-iteration loop for bisection.
        throttle: optional overload rate limiter applied before routing
            (see :mod:`repro.serving.throttle`).
        tracer: optional observer (see :mod:`repro.obs`) shared with every
            replica engine.  The cluster emits submission, routing, replica
            lifecycle, and autoscale events; each engine emits the
            queue/admission/token lifecycle and its ``engine.step`` /
            ``engine.jump`` spans tagged with its replica index.  The
            default :class:`~repro.obs.tracer.NullTracer` keeps runs
            byte-identical to untraced ones.
        faults: optional seeded failure schedule (see
            :mod:`repro.serving.faults`): replica crashes and straggler
            slowdowns, plus the plan's retry and replacement recovery knobs.
            ``None`` (the default) keeps every replica perfectly reliable
            and runs byte-identical to builds that predate fault injection.
        prefix_cache_tokens: per-replica session prefix-cache budget in KV
            tokens (see :class:`repro.memory.prefix_cache.PrefixCache`);
            each replica's engine retains finished session turns' KV context
            for reuse by follow-up turns that land on the same replica.
            Cached tokens count in the replica's pool, so a budget at or
            above its capacity means the cache is bounded only by pool
            pressure.  ``None`` (the default) disables retention and keeps
            every run byte-identical to builds that predate sessions.
    """

    def __init__(
        self,
        platform: Platform | None = None,
        num_replicas: int = 1,
        router: Router | str | None = "round-robin",
        scheduler_name: str = "past-future",
        scheduler_kwargs: dict | None = None,
        scheduler_factory: Callable[[], Scheduler] | None = None,
        cost_model: CostModel | None = None,
        chunked_prefill_tokens: int | None = None,
        token_capacity_override: int | None = None,
        capacity_scale: float | None = None,
        platforms: Sequence[Platform] | None = None,
        autoscaler: Autoscaler | None = None,
        limits: SimulationLimits | None = None,
        fast_path: bool = True,
        throttle: OverloadThrottle | None = None,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
        prefix_cache_tokens: int | None = None,
    ) -> None:
        self.platforms: list[Platform] = check_fleet_args(
            platform,
            platforms,
            num_replicas,
            router,
            autoscaler=autoscaler,
            faults=faults,
            token_capacity_override=token_capacity_override,
            capacity_scale=capacity_scale,
            explicit_cost_model=cost_model is not None,
            prefix_cache_tokens=prefix_cache_tokens,
            chunked_prefill_tokens=chunked_prefill_tokens,
        )
        #: first platform of the cycle; the homogeneous fleet's platform.
        self.platform = self.platforms[0]
        self.router: Router | None = create_router(router) if isinstance(router, str) else router
        self.throttle = throttle
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled
        self.autoscaler = autoscaler
        self.limits = limits or SimulationLimits()
        self.fast_path = fast_path
        if scheduler_factory is None:
            kwargs = dict(scheduler_kwargs or {})

            def scheduler_factory() -> Scheduler:
                return create_scheduler(scheduler_name, **kwargs)

        self._scheduler_factory = scheduler_factory
        self._cost_model = cost_model
        self._chunked_prefill_tokens = chunked_prefill_tokens
        self._token_capacity_override = token_capacity_override
        self._capacity_scale = capacity_scale
        self._prefix_cache_tokens = prefix_cache_tokens
        # Relative decode speed per platform-cycle slot, normalised so the
        # fastest platform in the fleet is 1.0 (homogeneous fleets: all 1.0).
        models = [
            cost_model if cost_model is not None else CostModel(p) for p in self.platforms
        ]
        fastest = max(models, key=lambda m: m.effective_decode_bandwidth)
        self._platform_speeds = [m.relative_speed(fastest) for m in models]
        self.replicas: list[_Replica] = []
        self.fleet_timeline: list[FleetSizeSample] = []
        for _ in range(num_replicas):
            self._launch_replica(0.0, warmup_delay=0.0)
        self.rejected: list[Request] = []
        self.reject_reasons: Counter[str] = Counter()
        self.deferrals = 0
        self._deferred_heap: list[_DeferredArrival] = []
        self._defer_sequence = 0
        self._deferred_releases = 0
        self._throttle_releases = 0
        self._consumed = False
        # Fault injection (see repro.serving.faults).  With faults=None every
        # code path below is byte-identical to the pre-fault simulator: no
        # FAULT events enter the loop, no per-arrival error check runs, and
        # all fault counters stay at their zero defaults.
        self.fault_plan = faults
        self._fault_injector = FaultInjector(faults) if faults is not None else None
        self.failed: list[Request] = []
        self.retries = 0
        self.lost_tokens = 0
        self.fault_log: list[FaultEvent] = []
        self._retry_attempts: dict[str, int] = {}

    # ------------------------------------------------------------------ state
    @property
    def num_replicas(self) -> int:
        """Number of engines ever launched (including retired ones)."""
        return len(self.replicas)

    @property
    def active_replicas(self) -> list[_Replica]:
        """Replicas the router may currently place work on."""
        return [replica for replica in self.replicas if replica.routable]

    def _count(self, state: ReplicaState) -> int:
        return sum(1 for replica in self.replicas if replica.state is state)

    def snapshots(self) -> list[ReplicaView]:
        """Current router-visible state of every *routable* replica."""
        return [replica.snapshot() for replica in self.active_replicas]

    def _record_fleet_sample(self, time: float) -> None:
        # Samples are recorded at event-processing times, which the loop
        # visits in nondecreasing order; the clamp keeps the timeline
        # monotonic even if a caller passes a replica's post-step clock.
        if self.fleet_timeline:
            time = max(time, self.fleet_timeline[-1].time)
        sample = FleetSizeSample(
            time=time,
            active=self._count(ReplicaState.ACTIVE),
            warming=self._count(ReplicaState.WARMING),
            draining=self._count(ReplicaState.DRAINING),
        )
        if self.fleet_timeline and self.fleet_timeline[-1].time == time:
            self.fleet_timeline[-1] = sample
        else:
            self.fleet_timeline.append(sample)

    # ------------------------------------------------------------- elasticity
    def _platform_slot(self, launch_index: int) -> tuple[Platform, float]:
        """Platform and speed factor for the ``launch_index``-th replica."""
        slot = launch_index % len(self.platforms)
        return self.platforms[slot], self._platform_speeds[slot]

    def _effective_capacity(self, platform: Platform) -> int:
        """KV token capacity of a replica launched on ``platform``."""
        if self._token_capacity_override is not None:
            return self._token_capacity_override
        if self._capacity_scale is not None:
            return max(1, int(platform.token_capacity * self._capacity_scale))
        return platform.token_capacity

    def next_launch_capacity(self) -> int:
        """KV token capacity the *next* launched replica would have.

        The autoscaler consumes this so heterogeneous scale-up is sized in
        capacity units rather than replica counts.
        """
        return self._effective_capacity(self._platform_slot(len(self.replicas))[0])

    def _build_engine(self, platform: Platform) -> InferenceEngine:
        return InferenceEngine(
            platform=platform,
            scheduler=self._scheduler_factory(),
            cost_model=self._cost_model,
            chunked_prefill_tokens=self._chunked_prefill_tokens,
            token_capacity_override=self._effective_capacity(platform),
            tracer=self.tracer,
            prefix_cache_tokens=self._prefix_cache_tokens,
        )

    def _launch_replica(self, time: float, warmup_delay: float) -> _Replica:
        """Bring up one cold replica; routable after ``warmup_delay``."""
        ready_at = time + warmup_delay
        platform, speed_factor = self._platform_slot(len(self.replicas))
        state = ReplicaState.ACTIVE if warmup_delay <= 0 else ReplicaState.WARMING
        replica = _Replica(
            index=len(self.replicas),
            engine=self._build_engine(platform),
            platform=platform,
            speed_factor=speed_factor,
            launched_at=time,
            ready_at=ready_at,
            clock=ready_at if warmup_delay <= 0 else time,
        )
        replica.engine.trace_replica = replica.index
        self.replicas.append(replica)
        attrs = {"platform": platform.describe(), "warmup_delay": warmup_delay, "state": state.value}
        self._transition(replica, state, time, obs.REPLICA_LAUNCH, attrs)
        return replica

    def _transition(
        self,
        replica: _Replica,
        state: ReplicaState,
        time: float,
        event: str,
        attrs: dict | None = None,
    ) -> None:
        """Move ``replica`` to ``state``: one fleet sample and one ``event`` per change."""
        replica.state = state
        if state is ReplicaState.RETIRED or state is ReplicaState.DEAD:
            replica.retired_at = max(replica.clock, time)
        self._record_fleet_sample(time)
        if self._tracing:
            self.tracer.emit(TraceEvent(event, time, replica=replica.index, attrs=attrs or {}))

    def _activate_ready(self, time: float) -> None:
        """Promote warming replicas whose warm-up delay has elapsed."""
        for replica in self.replicas:
            if replica.state is ReplicaState.WARMING and replica.ready_at <= time:
                replica.clock = max(replica.clock, replica.ready_at)
                self._transition(replica, ReplicaState.ACTIVE, time, obs.REPLICA_ACTIVATE)

    def _retire(self, replica: _Replica, time: float) -> None:
        self._transition(replica, ReplicaState.RETIRED, time, obs.REPLICA_RETIRE)

    def _drain_replicas(self, count: int, time: float) -> None:
        """Take ``count`` provisioned replicas out of the routable set.

        Warming replicas are cancelled first (they hold no work); active ones
        are drained least-outstanding-first, newest-first on ties, and at
        least one active replica always remains so arrivals stay routable
        while replacements warm up.  A drained replica accepts no new
        placements but finishes every resident request before retiring.
        """
        warming = [r for r in self.replicas if r.state is ReplicaState.WARMING]
        for replica in sorted(warming, key=lambda r: -r.index)[:count]:
            self._retire(replica, time)
            count -= 1
        if count <= 0:
            return
        active = self.active_replicas
        victims = sorted(
            active,
            key=lambda r: (r.engine.num_running + r.engine.num_waiting, -r.index),
        )[: max(0, min(count, len(active) - 1))]
        for replica in victims:
            if replica.engine.has_work():
                engine = replica.engine
                attrs = {"running": engine.num_running, "waiting": engine.num_waiting}
                self._transition(replica, ReplicaState.DRAINING, time, obs.REPLICA_DRAIN, attrs)
            else:
                self._retire(replica, time)

    def _run_autoscale_decision(self, time: float) -> None:
        autoscaler = self.autoscaler
        assert autoscaler is not None
        warming = [replica for replica in self.replicas if replica.state is ReplicaState.WARMING]
        view = autoscaler.make_view(
            time,
            self.snapshots(),
            num_warming=len(warming),
            warming_capacity=sum(replica.engine.token_capacity for replica in warming),
            launch_capacity=self.next_launch_capacity(),
        )
        target = autoscaler.evaluate(view)
        if self._tracing:
            self.tracer.emit(
                TraceEvent(
                    obs.AUTOSCALE_DECISION,
                    time,
                    attrs={
                        "target": target,
                        "provisioned": view.provisioned,
                        "active": view.num_active,
                        "warming": view.num_warming,
                        "draining": self._count(ReplicaState.DRAINING),
                        "saturation_rate": round(view.saturation_rate, 4),
                        "arrival_rate": round(view.arrival_rate, 4),
                    },
                )
            )
        delta = target - view.provisioned
        for _ in range(delta):
            self._launch_replica(time, warmup_delay=autoscaler.warmup_delay)
        if delta < 0:
            self._drain_replicas(-delta, time)

    # ----------------------------------------------------------------- faults
    def _apply_faults(self, time: float) -> None:
        """Apply every fault action of the plan scheduled at or before ``time``."""
        injector = self._fault_injector
        assert injector is not None
        for action in injector.pop_due(time):
            if not 0 <= action.replica < len(self.replicas):
                self._log_fault(time, f"skipped:{action.kind}", action.replica, reason="no-such-replica")
                continue
            replica = self.replicas[action.replica]
            if action.kind == "crash":
                if replica.state not in (ReplicaState.RETIRED, ReplicaState.DEAD):
                    self._crash_replica(replica, time)
            elif action.kind == "straggler-start":
                if replica.steppable or replica.state is ReplicaState.WARMING:
                    self._begin_straggler(replica, time, action.fault)
            elif action.kind == "straggler-end":
                self._end_straggler(replica, time)

    def _crash_replica(self, replica: _Replica, time: float) -> None:
        """Kill ``replica``: abort its work, mark it dead, recover what we can.

        Aborted requests leave the replica's per-replica accounting and move
        to the cluster-level ``failed`` list (their partial tokens count as
        lost work); under a retry policy each one is re-dispatched through
        the retry heap, otherwise it is rejected with a typed reason.  A
        cold replacement launches immediately when the plan asks for one.
        """
        assert self.fault_plan is not None
        was_warming = replica.state is ReplicaState.WARMING
        aborted = replica.engine.abort_all(time)
        if aborted:
            aborted_ids = {id(request) for request in aborted}
            replica.requests = [r for r in replica.requests if id(r) not in aborted_ids]
        lost = sum(request.generated_tokens for request in aborted)
        self.lost_tokens += lost
        self.failed.extend(aborted)
        attrs = {"cause": "crash", "killed": len(aborted), "lost_tokens": lost}
        self._transition(replica, ReplicaState.DEAD, time, obs.REPLICA_FAIL, attrs)
        replacement = None
        if self.fault_plan.replace_crashed and not was_warming:
            replacement = self._launch_replica(
                time, warmup_delay=self.fault_plan.replacement_warmup
            )
        self._log_fault(
            time,
            "crash",
            replica.index,
            killed=len(aborted),
            lost_tokens=lost,
            replacement=replacement.index if replacement is not None else None,
        )
        for request in aborted:
            self._redispatch(request.spec, request.arrival_time, time)

    def _begin_straggler(self, replica: _Replica, time: float, fault) -> None:
        """Install the slowdown wrapper and mark the replica degraded."""
        if replica.saved_cost_model is not None:
            return  # overlapping windows: the first slowdown stays in force
        replica.saved_cost_model = replica.engine.cost_model
        replica.engine.cost_model = SlowdownCostModel(replica.engine.cost_model, fault.slowdown)
        if self._tracing:
            self.tracer.emit(
                TraceEvent(
                    obs.REPLICA_FAIL,
                    time,
                    replica=replica.index,
                    attrs={"cause": "straggler", "slowdown": fault.slowdown},
                )
            )
        self._log_fault(
            time, "straggler-start", replica.index, slowdown=fault.slowdown, duration=fault.duration
        )

    def _end_straggler(self, replica: _Replica, time: float) -> None:
        """Restore the replica's true cost model and healthy state."""
        if replica.saved_cost_model is None:
            return  # never started (e.g. the replica crashed mid-window)
        replica.engine.cost_model = replica.saved_cost_model
        replica.saved_cost_model = None
        if self._tracing:
            self.tracer.emit(TraceEvent(obs.REPLICA_RECOVER, time, replica=replica.index))
        self._log_fault(time, "straggler-end", replica.index)

    def _log_fault(self, time: float, kind: str, replica: int, **detail) -> None:
        """Append one entry to the run's fault log."""
        self.fault_log.append(FaultEvent(time=time, kind=kind, replica=replica, detail=detail))

    def _redispatch(self, spec: RequestSpec, arrived_at: float, now: float) -> None:
        """Re-dispatch work a replica kill aborted, or reject it with a typed reason.

        Consults the plan's :class:`~repro.serving.faults.RetryPolicy` for
        this request's next backoff; a ``None`` policy (recovery disabled)
        rejects with :data:`~repro.serving.faults.REASON_REPLICA_CRASH`, an
        exhausted attempt budget with
        :data:`~repro.serving.faults.REASON_RETRIES_EXHAUSTED`.
        """
        policy = self.fault_plan.retry_policy if self.fault_plan is not None else None
        attempt = self._retry_attempts.get(spec.request_id, 0)
        delay = policy.delay(spec.request_id, attempt) if policy is not None else None
        if delay is None:
            reason = REASON_REPLICA_CRASH if policy is None else REASON_RETRIES_EXHAUSTED
            self._reject_spec(spec, now, arrived_at, reason)
            return
        self._retry_attempts[spec.request_id] = attempt + 1
        self.retries += 1
        retry_at = now + delay
        if self._tracing:
            self.tracer.emit(
                TraceEvent(
                    obs.REQUEST_RETRY,
                    now,
                    request_id=spec.request_id,
                    attrs={"attempt": attempt + 1, "retry_at": retry_at, "cause": "crash"},
                )
            )
        self._park(spec, arrived_at, retry_at)

    # ---------------------------------------------------------------- routing
    def _park(self, spec: RequestSpec, arrived_at: float, retry_at: float) -> None:
        """Queue ``spec`` for another routing attempt at ``retry_at``.

        Parked requests with equal ``retry_at`` re-route in parking order.
        """
        heapq.heappush(
            self._deferred_heap, _DeferredArrival(retry_at, self._defer_sequence, spec, arrived_at)
        )
        self._defer_sequence += 1

    def _reject_spec(
        self,
        spec: RequestSpec,
        now: float,
        arrived_at: float,
        reason: str,
        throttled: bool = False,
    ) -> None:
        """Record one turned-away request under ``reason`` and count its client slot."""
        self.rejected.append(Request(spec=spec, arrival_time=arrived_at))
        self.reject_reasons[reason] += 1
        if self._tracing:
            attrs = {"reason": reason}
            if throttled:
                attrs.update(self.throttle.window_usage(spec, now))
            event = obs.REQUEST_THROTTLED if throttled else obs.REQUEST_REJECTED
            self.tracer.emit(TraceEvent(event, now, request_id=spec.request_id, attrs=attrs))
            # A turned-away turn never finishes, so its session cannot spawn
            # a follow-up: the session ends here, abandoned.
            self._emit_session_turn(spec, now, finished=False)
        # The client's slot must be released or a closed-loop pool would
        # deadlock.  A throttle reject releases it at this same instant
        # without a zero-time cascade risk: the rate window only fills as
        # requests are admitted, so a same-instant follow-up either fits the
        # window or is itself throttled, and the workload is finite.  The
        # arrival loop, which owns the generator, drains these releases.
        # Any other reject must not release at this instant: views only
        # change when a replica steps, so an immediate release would
        # re-inject (and re-reject) the client's next request in a zero-time
        # cascade.  Release it after the next completed iteration, when the
        # fleet has actually made progress, or when the run would otherwise
        # end.
        if throttled:
            self._throttle_releases += 1
        else:
            self._deferred_releases += 1

    def _release_rejected(self, generator: ArrivalQueue, time: float) -> None:
        """Give rejected requests' client slots back to the load generator."""
        while self._deferred_releases:
            self._deferred_releases -= 1
            generator.on_request_finished(time)

    def _emit_session_turn(self, spec: RequestSpec, time: float, finished: bool) -> None:
        """Emit ``session.stage`` or ``session.end`` for a finished or turned-away turn."""
        stage = spec.session_stage
        if spec.session_id is None or stage is None:
            return
        if finished and not spec.is_final_stage:
            kind, attrs = obs.SESSION_STAGE, {"session_id": spec.session_id, "stage": stage}
        else:
            kind = obs.SESSION_END
            attrs = {
                "session_id": spec.session_id,
                "turns_completed": stage + 1 if finished else stage,
                "abandoned": not finished,
            }
        self.tracer.emit(TraceEvent(kind, time, request_id=spec.request_id, attrs=attrs))

    def _throttle_arrival(self, spec: RequestSpec, now: float, arrived_at: float) -> bool:
        """Trace a new arrival's submission and run it past the throttle.

        Returns whether the throttle turned the request away.  A throttled
        request is rejected (:meth:`_reject_spec`) before it touches any
        replica.
        """
        tracer = self.tracer
        if self._tracing:
            if spec.session_id is not None and spec.session_stage == 0:
                tracer.emit(
                    TraceEvent(
                        obs.SESSION_START,
                        now,
                        request_id=spec.request_id,
                        attrs={"session_id": spec.session_id, "stages": spec.session_stages},
                    )
                )
            tracer.emit(
                TraceEvent(obs.REQUEST_SUBMIT, now, request_id=spec.request_id, attrs=_submit_attrs(spec))
            )
        throttle = self.throttle
        if throttle is None:
            return False
        reason = throttle.check(spec, now)
        if reason is None:
            return False
        self._reject_spec(spec, now, arrived_at, reason, throttled=True)
        return True

    def _route_arrival(
        self,
        spec: RequestSpec,
        now: float,
        arrived_at: float | None = None,
        first_attempt: bool = True,
    ) -> None:
        """Place ``spec`` on a replica, or throttle, park or reject it.

        ``arrived_at`` pins the request's arrival timestamp across retries
        (latency accounting always starts at the original arrival); retries
        also skip the autoscaler's traffic window so a parked request is not
        double-counted as new demand.
        """
        if arrived_at is None:
            arrived_at = spec.arrival_time if spec.arrival_time is not None else now
        # Rate limiting sits in front of routing: a throttled arrival consumes
        # no routing decision and no autoscaler traffic signal.  Retries
        # skip it — the request was submitted (and recorded in its tenant's
        # window) on first attempt.
        if first_attempt and self._throttle_arrival(spec, now, arrived_at):
            return
        if self.router is None:
            replica = self.replicas[0]
        else:
            replica = self._decide(spec, now, arrived_at, first_attempt)
            if replica is None:
                return
        request = Request(spec=spec, arrival_time=arrived_at)
        if not replica.engine.has_work():
            # An idle replica resumes at the arrival instant; a busy one keeps
            # its clock and picks the request up at its next iteration.
            replica.clock = max(replica.clock, now)
        replica.requests.append(request)
        replica.engine.submit(request, now)

    def _decide(
        self, spec: RequestSpec, now: float, arrived_at: float, first_attempt: bool
    ) -> _Replica | None:
        """Run one routing decision; the chosen replica, or ``None`` if parked or rejected."""
        assert self.router is not None
        routable = {replica.index: replica for replica in self.active_replicas}
        views = [replica.snapshot() for replica in routable.values()]
        if not views:
            # Only reachable under fault injection: without faults at least
            # one replica is always active whenever arrivals exist.  Wait for
            # warming capacity (a crash replacement or autoscaler launch) if
            # any is coming, otherwise reject with a typed reason.
            warming = [r for r in self.replicas if r.state is ReplicaState.WARMING]
            if warming:
                # Warm-up completions outrank arrivals/retries at equal
                # times, so a warming replica seen here always has
                # ready_at strictly in the future.
                retry_at = min(r.ready_at for r in warming)
                self.deferrals += 1
                if self._tracing:
                    self.tracer.emit(
                        TraceEvent(
                            obs.REQUEST_DEFERRED,
                            now,
                            request_id=spec.request_id,
                            attrs={"retry_at": retry_at},
                        )
                    )
                self._park(spec, arrived_at, retry_at)
                return None
            self._reject_spec(spec, now, arrived_at, REASON_NO_REPLICAS)
            return None
        if first_attempt and self.autoscaler is not None:
            saturated = sum(1 for v in views if v.saturated) / len(views)
            self.autoscaler.note_arrival(now, saturated, spec.prompt_tokens)
        # The router chooses among the replicas whose pool can ever hold the
        # request; on a heterogeneous fleet a small replica may not.
        needed = spec.total_tokens
        views = [v for v in views if v.token_capacity >= needed]
        if not views:
            largest = max(r.engine.token_capacity for r in routable.values())
            raise ValueError(
                f"request {spec.request_id} needs {needed} KV tokens, more than the "
                f"largest routable replica's capacity of {largest}"
            )
        replica_id = self.router.decide(spec, views)
        replica = routable.get(replica_id)
        if replica is None:
            known = next((r for r in self.replicas if r.index == replica_id), None)
            if known is not None:
                raise RuntimeError(
                    f"router {self.router.name!r} routed to replica {replica_id}, "
                    f"which is {known.state.value} and must not receive new work; "
                    f"routable ids: {sorted(routable)}"
                )
            raise RuntimeError(
                f"router {self.router.name!r} routed to invalid replica "
                f"{replica_id}; routable ids: {sorted(routable)}"
            )
        if self._tracing:
            chosen = next(v for v in views if v.replica_id == replica_id)
            self.tracer.emit(
                TraceEvent(
                    obs.REQUEST_ROUTED,
                    now,
                    request_id=spec.request_id,
                    attrs={
                        "replica": replica_id,
                        "candidates": len(views),
                        **chosen.trace_signals(),
                    },
                )
            )
        return replica

    # ---------------------------------------------------------------- running
    def _run(
        self,
        generator: ArrivalQueue,
        load: Workload | Sequence[Interaction],
        workload_name: str,
        num_clients: int,
    ) -> ClusterResult:
        if self._consumed:
            raise RuntimeError("ClusterSimulator instances are single-use; build a new one per run")
        self._consumed = True
        # ``submit``'s test, against the largest replica, before the first step.
        capacity = max(map(self._effective_capacity, self.platforms))
        if isinstance(load, Workload):
            specs = load.requests
        else:
            # A turn's total is the context the next turn carries in, so a
            # session's last turn is its largest.
            specs = [session.spec(session.num_stages - 1) for session in load]
        for spec in specs:
            if spec.total_tokens > capacity:
                raise ValueError(
                    f"request {spec.request_id} needs {spec.total_tokens} KV tokens, "
                    f"more than the largest replica's capacity of {capacity}"
                )
        generator.start()
        router = self.router
        if router is not None:
            router.on_run_start()
        if self.throttle is not None:
            self.throttle.on_run_start()
        if self.autoscaler is not None:
            self.autoscaler.on_run_start()
        termination = "drained"
        total_steps = 0
        time = 0.0
        follow_up_delay = generator.min_follow_up_delay

        # Event priorities at equal times: warm-ups complete first (a replica
        # ready at t may serve an arrival at t), fault actions land next (so
        # decisions, arrivals, and retries all see the post-fault fleet),
        # decisions see the pre-arrival fleet, arrivals join before retries
        # of older parked requests, and all join before the step at the
        # same instant: an arrival at a replica's clock joins its next
        # iteration.
        READY, FAULT, DECIDE, ARRIVAL, RETRY = 0, 1, 2, 3, 4

        # Kept across turns: ``busy`` (steppable replicas with work) and the
        # earliest external event with (``frontier``) and without (``others``)
        # the generator.  A step can move only the generator's next arrival,
        # re-read when it ``moved``; any other turn leaves them ``stale`` (the
        # proof is in docs/simulation-semantics.md, "One event loop").
        stale = True
        while True:
            if stale:
                busy = [r for r in self.replicas if r.steppable and r.engine.has_work()]
                sources = [(r.ready_at, READY) for r in self.replicas if r.state is ReplicaState.WARMING]
                if self._fault_injector is not None:
                    fault_time = self._fault_injector.next_event_time()
                    if fault_time is not None:
                        # Fault actions are loop events, so they bound every
                        # replica's event-jump horizon: a macro-step can never
                        # fuse past a crash or straggler edge.
                        sources.append((fault_time, FAULT))
                if self.autoscaler is not None:
                    sources.append((self.autoscaler.next_decision_time, DECIDE))
                if self._deferred_heap:
                    sources.append((self._deferred_heap[0].retry_at, RETRY))
                others = min(sources, default=(math.inf, RETRY))
                stale, moved = False, True
            if moved:
                next_arrival = generator.next_arrival_time()
                frontier = others if next_arrival is None else min(others, (next_arrival, ARRIVAL))
                moved = False
            step_replica = min(busy, key=lambda r: (r.clock, r.index)) if busy else None

            if step_replica is None and next_arrival is None and not self._deferred_heap:
                # No resident work, no future arrivals, nothing parked: the
                # run is drained, unless rejected clients still wait for their
                # slots.  No replica has work, so none steps again to release
                # them (e.g. every replica was lost): release them at the last
                # event time, so a closed-loop pool submits the rest of its
                # work and every request is routed or rejected.
                if not self._deferred_releases:
                    break
                self._release_rejected(generator, time)
                stale = True
                continue

            if step_replica is None or frontier[0] <= step_replica.clock:
                time, kind = frontier
                stale = True
                if kind == READY:
                    self._activate_ready(time)
                elif kind == FAULT:
                    self._apply_faults(time)
                elif kind == DECIDE:
                    self._run_autoscale_decision(time)
                elif kind == ARRIVAL:
                    for spec in generator.pop_arrivals(time):
                        self._route_arrival(spec, time)
                    while self._throttle_releases:
                        self._throttle_releases -= 1
                        generator.on_request_finished(time)
                else:
                    while self._deferred_heap and self._deferred_heap[0].retry_at <= time:
                        deferred = heapq.heappop(self._deferred_heap)
                        self._route_arrival(
                            deferred.spec, time, arrived_at=deferred.arrived_at, first_attempt=False
                        )
                continue

            time = step_replica.clock
            # Event-jump: this replica may fast-forward decode iterations that
            # provably produce no event.  Fused iterations touch only the
            # replica's own engine (its batch and its queue), so they commute
            # with other replicas' iterations; the horizon is the earliest
            # moment anything can *observe* this replica — a scheduled arrival
            # (routing views), a retry, an autoscale decision, a warm-up
            # completion, a fault action, and any arrival another busy
            # replica's completion could spawn.  That replica's next finish
            # ends a step starting at or after its clock, so the follow-up
            # lands no sooner than its clock plus the generator's minimum
            # follow-up delay (``inf`` for open-loop arrivals: no coupling).
            # The proof is in docs/simulation-semantics.md.
            jump = self.fast_path and not self._deferred_releases
            horizon = min([frontier[0], *[r.clock + follow_up_delay for r in busy if r is not step_replica]])
            advanced, finished, stop = step_replica.advance(self.limits, total_steps, horizon, jump)
            total_steps += advanced
            clock = step_replica.clock
            for request in finished:
                # Session generators spawn the follow-up turn here (never
                # inside a jump, so the arrival horizon stays complete).
                generator.on_request_finished(clock, request)
                if self._tracing:
                    self._emit_session_turn(request.spec, clock, finished=True)
                if router is not None:
                    router.on_request_finished(request, clock)
                if self.autoscaler is not None:
                    self.autoscaler.on_request_finished(request, clock)
            moved = bool(finished)
            # Client slots freed by fault rejections are released only once
            # some routable replica is unsaturated again — an immediate
            # release would just feed the next request into the same fleet at
            # the same instant.  If no replica ever steps again, the drain
            # check at the top of the loop releases them instead.
            if self._deferred_releases:
                open_views = self.snapshots()
                if open_views and not all(v.saturated for v in open_views):
                    self._release_rejected(generator, clock)
                    moved = True

            if moved and not step_replica.engine.has_work():
                busy.remove(step_replica)
                if step_replica.state is ReplicaState.DRAINING:
                    # Drain complete: every resident request ran to completion.
                    # The timeline sample lands at the event time (step start);
                    # retirement itself is stamped with the step's end clock.
                    self._retire(step_replica, time)
                    stale = True

            if stop is not None:
                termination = stop
                break

        makespan = max((r.clock for r in self.replicas), default=0.0)
        # Requests still parked after the loop ends can only exist
        # on abnormal termination (step/time limits, stall guard) — a normal
        # drain requires an empty heap.  They must not vanish from
        # accounting: stamp each one into the rejected set with a typed
        # reason so routed + rejected still equals submitted.
        while self._deferred_heap:
            leftover = heapq.heappop(self._deferred_heap)
            self._reject_spec(leftover.spec, makespan, leftover.arrived_at, REASON_UNROUTED)
        self._record_fleet_sample(makespan)
        replica_results = [
            replica.run_result(workload_name, num_clients, termination) for replica in self.replicas
        ]
        distinct_platforms = dict.fromkeys(p.describe() for p in self.platforms)
        return ClusterResult(
            router=router.describe() if router is not None else "direct",
            workload=workload_name,
            platform=" + ".join(distinct_platforms),
            num_replicas=self.num_replicas,
            duration=makespan,
            replicas=replica_results,
            rejected=list(self.rejected),
            termination=termination,
            autoscaler=self.autoscaler.describe() if self.autoscaler is not None else None,
            fleet_timeline=list(self.fleet_timeline),
            lifetimes=[replica.lifetime() for replica in self.replicas],
            deferrals=self.deferrals,
            reject_reasons=dict(self.reject_reasons),
            failed=list(self.failed),
            retries=self.retries,
            lost_tokens=self.lost_tokens,
            fault_events=list(self.fault_log),
            fault_plan=self.fault_plan.describe() if self.fault_plan is not None else None,
        )

    def run_closed_loop(
        self,
        workload: Workload,
        num_clients: int,
    ) -> ClusterResult:
        """Serve a workload with a fleet-wide closed-loop client pool."""
        pool = ClosedLoopClientPool(workload, num_clients=num_clients)
        return self._run(pool, workload, workload.name, num_clients)

    def run_open_loop(self, workload: Workload) -> ClusterResult:
        """Serve a workload open-loop, at its stamped arrival times."""
        arrivals = OpenLoopArrivals(workload)
        return self._run(arrivals, workload, workload.name, num_clients=0)

    def run_sessions(self, interactions: Sequence[Interaction]) -> ClusterResult:
        """Serve multi-turn sessions closed-loop across the fleet.

        Each interaction's opening turn arrives at its start time; every
        later turn is spawned by its predecessor's completion, carrying the
        accumulated conversation prefix.  Spawned arrivals are routed like
        any other (the ``session-affinity`` router sends them back to the
        replica holding their prefix).  Because a follow-up arrives one think
        time after the finish that spawns it, each busy replica bounds the
        others' event jumps at its clock plus the shortest think time.
        """
        generator = InteractionLoadGenerator(interactions)
        return self._run(generator, interactions, "interactions", num_clients=len(interactions))
