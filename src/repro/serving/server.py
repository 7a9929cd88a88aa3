"""The serving simulator: clients + admission scheduler + engine event loop.

:class:`ServingSimulator` owns the simulation clock.  Each tick it

1. injects every client arrival whose timestamp has passed into the engine's
   waiting queue,
2. runs one continuous-batching iteration of the engine, which advances the
   clock by the iteration's modelled latency, and
3. reports completions back to the client pool so closed-loop clients can
   submit their next request.

When the engine is idle but future arrivals exist, the clock jumps forward to
the next arrival, so lightly loaded simulations do not burn iterations doing
nothing.

The single engine here is perfectly reliable: fault injection (crashes,
preemptions, stragglers — :mod:`repro.serving.faults`) is a fleet-level
concern, attached to :class:`~repro.serving.cluster.ClusterSimulator` via its
``faults=`` keyword, because recovery is meaningless without other replicas
to absorb the displaced work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.engine.cost_model import CostModel
from repro.engine.engine import InferenceEngine
from repro.engine.eviction import EvictionPolicy
from repro.engine.request import Request
from repro.hardware.platform import Platform
from repro.obs import events as obs
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer
from repro.schedulers.base import Scheduler
from repro.serving.clients import ClosedLoopClientPool, OpenLoopArrivals
from repro.serving.results import RunResult
from repro.serving.throttle import OverloadThrottle
from repro.workloads.interactions import Interaction, InteractionLoadGenerator
from repro.workloads.spec import Workload


class LoadGenerator(Protocol):
    """The interface both client models implement."""

    def start(self, time: float = 0.0) -> None:
        """Begin generating arrivals at simulation time ``time``."""
        ...

    def on_request_finished(self, time: float, request: Request | None = None) -> None:
        """Release a client slot: a completion with ``request``, else a throttle or reject."""
        ...

    def pop_arrivals(self, now: float) -> list:
        """Return (and consume) every arrival with timestamp <= ``now``."""
        ...

    def next_arrival_time(self) -> float | None:
        """Timestamp of the next scheduled arrival, or ``None`` if exhausted."""
        ...

    @property
    def min_follow_up_delay(self) -> float:
        """Least time from a completion to any arrival it spawns (``inf``: none)."""
        ...

    @property
    def drained(self) -> bool:
        """Whether no further arrivals can ever be produced."""
        ...


def _submit_attrs(spec) -> dict:
    """``request.submit`` payload: prompt size plus any tenant identity."""
    attrs: dict = {"prompt_tokens": spec.prompt_tokens}
    if spec.user_id is not None:
        attrs["user_id"] = spec.user_id
    if spec.app_id is not None:
        attrs["app_id"] = spec.app_id
    if spec.sla_class:
        attrs["sla_class"] = spec.sla_class
    return attrs


def emit_session_completion(tracer: Tracer, request: Request, time: float) -> None:
    """Emit ``session.stage`` / ``session.end`` for one finished session turn."""
    spec = request.spec
    if spec.session_id is None or spec.session_stage is None:
        return
    if spec.is_final_stage:
        tracer.emit(
            TraceEvent(
                obs.SESSION_END,
                time,
                request_id=spec.request_id,
                attrs={
                    "session_id": spec.session_id,
                    "turns_completed": spec.session_stage + 1,
                    "abandoned": False,
                },
            )
        )
    else:
        tracer.emit(
            TraceEvent(
                obs.SESSION_STAGE,
                time,
                request_id=spec.request_id,
                attrs={"session_id": spec.session_id, "stage": spec.session_stage},
            )
        )


def emit_session_abandoned(tracer: Tracer, spec, time: float) -> None:
    """Emit an abandoned ``session.end`` for a turned-away session turn."""
    if spec.session_id is None or spec.session_stage is None:
        return
    tracer.emit(
        TraceEvent(
            obs.SESSION_END,
            time,
            request_id=spec.request_id,
            attrs={
                "session_id": spec.session_id,
                "turns_completed": spec.session_stage,
                "abandoned": True,
            },
        )
    )


def throttle_arrival(
    spec,
    time: float,
    arrived_at: float,
    tracer: Tracer,
    throttle: OverloadThrottle | None,
    rejected: list[Request],
    reject_reasons: dict[str, int],
) -> bool:
    """Trace a new arrival's submission and run it past the throttle.

    Returns whether the throttle turned the request away.  A throttled
    request is recorded in ``rejected`` / ``reject_reasons`` (and traced)
    before it touches any engine; the caller releases its client slot on its
    own schedule.
    """
    tracing = tracer.enabled
    if tracing:
        if spec.session_id is not None and spec.session_stage == 0:
            tracer.emit(
                TraceEvent(
                    obs.SESSION_START,
                    time,
                    request_id=spec.request_id,
                    attrs={"session_id": spec.session_id, "stages": spec.session_stages},
                )
            )
        tracer.emit(
            TraceEvent(obs.REQUEST_SUBMIT, time, request_id=spec.request_id, attrs=_submit_attrs(spec))
        )
    if throttle is None:
        return False
    reason = throttle.check(spec, time)
    if reason is None:
        return False
    rejected.append(Request(spec=spec, arrival_time=arrived_at))
    reject_reasons[reason] = reject_reasons.get(reason, 0) + 1
    if tracing:
        tracer.emit(
            TraceEvent(
                obs.REQUEST_THROTTLED,
                time,
                request_id=spec.request_id,
                attrs={"reason": reason, **throttle.window_usage(spec, time)},
            )
        )
        # A throttled turn never finishes, so its session cannot spawn a
        # follow-up: the session ends here.
        emit_session_abandoned(tracer, spec, time)
    return True


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


@dataclass(kw_only=True)
class EngineDriver:
    """One engine plus the state that drives it: its clock and stall guard.

    Both simulators advance their engines only through :meth:`advance` (a
    fleet's replicas are drivers too), so the jump-or-step choice, the stall
    guard and the safety limits exist once.
    """

    engine: InferenceEngine
    #: the engine's simulation clock; each replica of a fleet has its own.
    clock: float = 0.0
    #: consecutive idle iterations (the stall guard).
    idle_streak: int = 0
    #: every request submitted to the engine, in submission order.
    requests: list[Request] = field(default_factory=list)

    def advance(
        self,
        limits: SimulationLimits,
        steps: int,
        horizon: float | None = None,
        jump: bool = True,
    ) -> tuple[int, Sequence[Request], bool]:
        """Advance the engine by one event jump or, failing that, one iteration.

        With ``jump`` the engine first tries to fuse decode iterations up to
        ``horizon``, the earliest external event that could observe it
        (:meth:`InferenceEngine.try_jump_any`).  No request finishes inside a
        jump, so completions cannot schedule new arrivals mid-macro-step and
        the horizon stays complete knowledge of future events.  Otherwise one
        reference :meth:`InferenceEngine.step` runs.  ``steps`` is the run's
        iteration count so far, summed over every engine the caller drives.

        Returns ``(iterations advanced, finished requests, stop)``.  ``stop``
        ends the run incomplete: it reached ``limits``, or three idle
        iterations in a row while requests wait mean no admission is possible
        (a scheduler that never admits).  The simulation stops instead of
        spinning forever.  The caller handles the finished requests before it
        stops.
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
                stop = steps + jumped.steps >= limits.max_steps or self.clock >= limits.max_time
                return jumped.steps, (), stop
        result = self.engine.step(self.clock)
        if result.duration > 0:
            self.clock = result.end_time
        self.idle_streak = self.idle_streak + 1 if result.was_idle else 0
        stop = self.idle_streak >= 3 or steps + 1 >= limits.max_steps or self.clock >= limits.max_time
        return 1, result.finished, stop

    def run_result(
        self,
        workload: str,
        num_clients: int,
        completed: bool,
        rejected: list[Request] | None = None,
        reject_reasons: dict[str, int] | None = None,
    ) -> RunResult:
        """The engine's :class:`RunResult` at the driver's clock."""
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
            completed=completed,
            rejected=rejected or [],
            reject_reasons=reject_reasons or {},
            jump_stats=engine.jump_stats,
            prefix_stats=engine.prefix_cache.stats if engine.prefix_cache is not None else None,
        )


class ServingSimulator:
    """Drives an :class:`InferenceEngine` against a load generator.

    With ``fast_path`` (the default) the loop asks the engine to fuse
    provably event-free decode iterations into vectorized macro-steps,
    bounded by the next scheduled arrival — including saturated phases,
    where the admission scheduler itself proves its next decisions admit
    nothing (:meth:`InferenceEngine.try_jump_any`);
    ``fast_path=False`` never asks it to, so every iteration is the
    engine's :meth:`~InferenceEngine.step`, which is the same code in both
    modes.  Results are bit-identical, so the flag is purely a bisection
    escape hatch.

    ``tracer`` attaches an observer (see :mod:`repro.obs`): the simulator
    emits ``request.submit`` / ``request.throttled`` events and shares the
    tracer with the engine, which emits the queue/admission/token lifecycle
    and the ``engine.step`` / ``engine.jump`` spans.  The default
    :class:`~repro.obs.tracer.NullTracer` keeps every run byte-identical to
    an untraced one.

    A simulator serves exactly one ``run_*`` call: its engine accumulates
    stats, timelines and scheduler history, so a second call raises
    :class:`RuntimeError`.  Build a fresh simulator per run.
    """

    def __init__(
        self,
        platform: Platform,
        scheduler: Scheduler,
        cost_model: CostModel | None = None,
        eviction_policy: EvictionPolicy | None = None,
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
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.engine = InferenceEngine(
            platform=platform,
            scheduler=scheduler,
            cost_model=cost_model,
            eviction_policy=eviction_policy,
            chunked_prefill_tokens=chunked_prefill_tokens,
            token_capacity_override=token_capacity_override,
            tracer=self.tracer,
            prefix_cache_tokens=prefix_cache_tokens,
        )
        self.limits = limits or SimulationLimits()
        self._consumed = False

    # ---------------------------------------------------------------- running
    def _run(self, generator: LoadGenerator, workload_name: str, num_clients: int) -> RunResult:
        if self._consumed:
            raise RuntimeError("ServingSimulator instances are single-use; build a new one per run")
        self._consumed = True
        engine = self.engine
        driver = EngineDriver(engine=engine)
        generator.start(0.0)
        if self.throttle is not None:
            self.throttle.on_run_start()
        rejected: list[Request] = []
        reject_reasons: dict[str, int] = {}
        completed = True

        tracer = self.tracer
        tracing = tracer.enabled
        steps = 0
        while True:
            time = driver.clock
            for spec in generator.pop_arrivals(time):
                arrival = spec.arrival_time if spec.arrival_time is not None else time
                if throttle_arrival(spec, time, arrival, tracer, self.throttle, rejected, reject_reasons):
                    # The client slot is released immediately — a closed-loop
                    # client whose request is throttled issues its next one
                    # after its think time, exactly like a completion would.
                    generator.on_request_finished(time)
                    continue
                request = Request(spec=spec, arrival_time=arrival)
                driver.requests.append(request)
                engine.submit(request, time)

            if not engine.has_work():
                if generator.drained:
                    break
                next_arrival = generator.next_arrival_time()
                if next_arrival is None:
                    break
                driver.clock = max(time, next_arrival)
                continue

            horizon = generator.next_arrival_time() if self.fast_path else None
            advanced, finished, stop = driver.advance(self.limits, steps, horizon, self.fast_path)
            steps += advanced
            time = driver.clock
            for request in finished:
                # Session generators spawn the follow-up turn here (never
                # inside a jump, so the arrival horizon stays complete).
                generator.on_request_finished(time, request)
                if tracing:
                    emit_session_completion(tracer, request, time)
            if stop:
                completed = False
                break

        return driver.run_result(
            workload_name, num_clients, completed, rejected=rejected, reject_reasons=reject_reasons
        )

    def run_closed_loop(
        self,
        workload: Workload,
        num_clients: int,
        think_time: float = 0.0,
    ) -> RunResult:
        """Serve a workload with a fixed-size closed-loop client pool."""
        pool = ClosedLoopClientPool(workload, num_clients=num_clients, think_time=think_time)
        return self._run(pool, workload.name, num_clients)

    def run_open_loop(
        self,
        workload: Workload,
        request_rate: float | None = None,
        seed: int = 0,
    ) -> RunResult:
        """Serve a workload with open-loop (Poisson or recorded) arrivals."""
        arrivals = OpenLoopArrivals(workload, request_rate=request_rate, seed=seed)
        return self._run(arrivals, workload.name, num_clients=0)

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
        return self._run(generator, name, num_clients=len(interactions))
