"""Replica autoscaling: elastic fleets driven by saturation and forecasts.

The routing layer (:mod:`repro.serving.routing`) decides *where* each request
goes; this subsystem decides *how many replicas exist to route to*.  A
production fleet is billed by replica-seconds, so the interesting number is
not raw goodput but **goodput per replica-second** — SLA-compliant tokens per
unit of provisioned capacity — and an elastic fleet wins by shedding replicas
during lulls and growing ahead of bursts.

Three policies are provided, in increasing order of foresight:

* :class:`StaticPolicy` — never changes the fleet; the peak-provisioned
  baseline every elastic policy is compared against.
* :class:`ReactivePolicy` — classic threshold autoscaling: scale up when the
  windowed :attr:`~repro.serving.routing.ReplicaView.saturated` rate of
  recent arrivals crosses a high watermark, scale down when it falls below a
  low watermark, with hysteresis (the gap between watermarks) and a cooldown
  between actions.  It only reacts *after* saturation is observed, so every
  scale-up pays the full warm-up delay inside the burst.
* :class:`PredictivePolicy` — the paper's signal lifted to the fleet axis: it
  keeps the same sliding output-length history the Past-Future scheduler and
  :class:`~repro.serving.routing.MemoryAwareRouter` use, forecasts each
  replica's *peak* future KV demand (Eq. 2–4 via
  :meth:`MemoryAwareRouter.predicted_peaks`, one call per fleet) plus the demand of
  requests forecast to arrive within one warm-up horizon, and sizes the
  fleet so predicted demand fits under a target utilisation.  Because queued
  prompts and predicted output growth are visible *before* replicas saturate,
  it scales ahead of bursts instead of chasing them.

The :class:`Autoscaler` driver owns the decision cadence (a fixed interval on
the fleet clock), the windowed traffic statistics handed to policies as a
:class:`FleetView`, the min/max fleet clamp and the warm-up delay.  It is the
one description of an elastic fleet: ``ClusterSimulator(autoscaler=...)``
and ``FleetConfig(autoscaler=...)`` both take an instance, and every run
resets it with :meth:`Autoscaler.on_run_start`.  The
:class:`~repro.serving.cluster.ClusterSimulator` executes its decisions (and,
under a tracer, records each as an ``autoscale.decision`` event):
scale-up launches replicas that spend ``warmup_delay`` seconds warming (cold
engine, empty scheduler history, not routable) before activating, and
scale-down *drains* a replica — no new placements, resident work runs to
completion, then the replica retires — so admitted requests are never
dropped.

The fault subsystem (:mod:`repro.serving.faults`) rides the same launch
machinery: a crashed replica's replacement is a fresh launch with the plan's
``replacement_warmup`` instead of the autoscaler's ``warmup_delay``, and dead
or draining replicas drop out of the routable :class:`FleetView` exactly like
an autoscaler drain — so policies automatically size around failures they
were never told about.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.core.history import WINDOW_SIZE
from repro.engine.request import Request
from repro.registry import instantiate
from repro.serving.routing import MemoryAwareRouter, ReplicaView


@dataclass(frozen=True)
class FleetView:
    """Everything an autoscaling policy may observe at one decision point.

    Like :class:`~repro.serving.routing.ReplicaView` for routers, the view
    contains only operator-visible state — queue depths, KV occupancy,
    windowed traffic statistics — never the hidden true output lengths.
    It holds only what the policies read; :meth:`Autoscaler.make_view` is
    its one builder.

    Heterogeneous fleets (see ``ClusterSimulator(platforms=...)``) mix
    replicas of very different KV capacities, so the view carries the
    capacity totals policies need to reason in **capacity units**
    ("A100-equivalents") rather than replica counts: per-replica capacities
    ride on each snapshot, ``warming_capacity`` accounts for capacity already
    bought but not yet routable, and ``launch_capacity`` is what the *next*
    scale-up would add.

    Attributes:
        time: fleet clock at the decision instant.
        snapshots: one :class:`ReplicaView` per *routable* (active)
            replica.  Draining replicas are not shown: they left the
            provisioned count when they started draining.
        num_warming: replicas launched but still inside their warm-up delay.
        saturation_rate: mean saturated-replica fraction observed by arrivals
            inside the sampling window (0.0 when the window is empty).
        arrival_rate: arrivals per second over the sampling window.
        mean_arrival_tokens: mean prompt tokens of those arrivals.
        warming_capacity: summed KV token capacity of warming replicas.
        launch_capacity: KV token capacity the next launched replica would
            have (0 when the cluster did not report it).
    """

    time: float
    snapshots: tuple[ReplicaView, ...]
    num_warming: int = 0
    saturation_rate: float = 0.0
    arrival_rate: float = 0.0
    mean_arrival_tokens: float = 0.0
    warming_capacity: int = 0
    launch_capacity: int = 0

    @property
    def num_active(self) -> int:
        """Routable replicas."""
        return len(self.snapshots)

    @property
    def provisioned(self) -> int:
        """Replicas currently paid for: active plus warming (not draining)."""
        return self.num_active + self.num_warming

    @property
    def queued_requests(self) -> int:
        """Requests waiting for admission across the active fleet."""
        return sum(s.num_waiting for s in self.snapshots)

    @property
    def replica_capacity(self) -> int:
        """KV token capacity of the first routable replica (0 when none is)."""
        if not self.snapshots:
            return 0
        return self.snapshots[0].token_capacity

    @property
    def provisioned_capacity(self) -> int:
        """Capacity currently paid for: active plus warming token slots."""
        return sum(s.token_capacity for s in self.snapshots) + self.warming_capacity


class AutoscalerPolicy(abc.ABC):
    """Sizing policy mapping a :class:`FleetView` to a desired fleet size."""

    #: human-readable policy name used in tables and figures.
    name: str = "abstract"

    @abc.abstractmethod
    def target_size(self, view: FleetView) -> int:
        """Desired provisioned fleet size (active + warming replicas).

        The :class:`Autoscaler` clamps the result to ``[1, max_replicas]``,
        so policies may return any integer.
        """

    # ------------------------------------------------------------- lifecycle
    def on_run_start(self) -> None:
        """Called once before a cluster run begins (reset mutable state)."""

    def on_request_finished(self, request: Request, time: float) -> None:
        """Called when any replica finishes a request (for learning policies)."""

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


class StaticPolicy(AutoscalerPolicy):
    """Fixed fleet size: the non-elastic baseline holds the size it has."""

    name = "static"

    def target_size(self, view: FleetView) -> int:
        """Return the provisioned size unchanged."""
        return view.provisioned


class ReactivePolicy(AutoscalerPolicy):
    """Threshold autoscaling on the windowed saturation rate.

    Scale up by one replica when recent arrivals saw at least
    ``scale_up_threshold`` of the active fleet saturated; scale down by one
    when the rate is at or below ``scale_down_threshold`` *and* no work is
    queued.  The gap between the two thresholds is the hysteresis
    band; ``cooldown`` seconds must elapse between consecutive actions so one
    burst does not trigger a scale-up/scale-down oscillation.

    Args:
        scale_up_threshold: windowed saturation rate that triggers growth.
        scale_down_threshold: windowed saturation rate that permits shrink.
        cooldown: minimum seconds between consecutive scaling actions.
    """

    name = "reactive"

    def __init__(
        self,
        scale_up_threshold: float = 0.5,
        scale_down_threshold: float = 0.05,
        cooldown: float = 5.0,
    ) -> None:
        if not 0.0 <= scale_down_threshold < scale_up_threshold <= 1.0:
            raise ValueError("thresholds must satisfy 0 <= down < up <= 1")
        if not 0 <= cooldown < math.inf:
            raise ValueError("cooldown must be non-negative and finite")
        self.scale_up_threshold = scale_up_threshold
        self.scale_down_threshold = scale_down_threshold
        self.cooldown = cooldown
        self._last_action: float | None = None

    def on_run_start(self) -> None:
        """Reset the cooldown clock for a fresh run."""
        self._last_action = None

    def _cooled_down(self, time: float) -> bool:
        return self._last_action is None or time - self._last_action >= self.cooldown

    def target_size(self, view: FleetView) -> int:
        """Step the fleet up/down on saturation-rate thresholds with cooldown."""
        current = view.provisioned
        if not self._cooled_down(view.time):
            return current
        if view.saturation_rate >= self.scale_up_threshold:
            self._last_action = view.time
            return current + 1
        if view.saturation_rate <= self.scale_down_threshold and view.queued_requests == 0:
            self._last_action = view.time
            return current - 1
        return current

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return (
            f"{self.name} (up>={self.scale_up_threshold:g}, "
            f"down<={self.scale_down_threshold:g}, cooldown={self.cooldown:g}s)"
        )


class PredictivePolicy(AutoscalerPolicy):
    """Size the fleet from forecast future KV demand (the paper's Eq. 2–4).

    Fleet demand has two parts:

    1. **Resident demand** — per active replica, the predicted *peak* future
       memory of its in-flight batch, computed exactly as the
       :class:`~repro.serving.routing.MemoryAwareRouter` computes its
       placement signal (conditional-mean remaining lengths over a sliding
       window of finished outputs, fed through
       :func:`repro.core.future_memory.peak_future_memory`).  Queued
       prompts count, so a burst is visible the moment it lands in admission
       queues — before any replica saturates.
    2. **Incoming demand** — arrivals forecast within ``horizon`` seconds
       (default: the fleet's warm-up delay, i.e. the work that will land
       before a replica launched *now* could help), each costing its mean
       observed prompt plus the window's mean output length.

    The target fleet size is the smallest one keeping predicted demand under
    ``target_utilization`` of aggregate capacity.  On heterogeneous fleets
    the policy reasons in **capacity units** rather than replica counts:
    predicted demand is compared against the token capacity already
    provisioned (active + warming, per-replica capacities from the
    :class:`FleetView`), and the deficit is bought in units of the next
    launch's capacity — "how many A100-equivalents are missing", not "how
    many replicas".  Scale-up is immediate —
    the whole point is to absorb the warm-up delay before the burst peaks —
    while scale-down steps one replica per ``scale_down_cooldown`` so a lull
    inside a burst train does not flap the fleet.

    The arrival-forecast lookahead is the autoscaler's warm-up delay, bound
    at run time.

    Args:
        target_utilization: fraction of aggregate KV capacity predicted
            demand may occupy before the fleet grows.
        default_length: output length assumed before any request finishes.
        scale_down_cooldown: minimum seconds between single-replica shrinks.
    """

    name = "predictive"

    def __init__(
        self,
        target_utilization: float = 0.7,
        default_length: int = 2048,
        scale_down_cooldown: float = 10.0,
    ) -> None:
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")
        if not 0 <= scale_down_cooldown < math.inf:
            raise ValueError("scale_down_cooldown must be non-negative and finite")
        self.target_utilization = target_utilization
        self.scale_down_cooldown = scale_down_cooldown
        # The memory-aware router doubles as the forecaster: same history,
        # same peak-demand equations, applied to sizing instead of placement.
        self._forecaster = MemoryAwareRouter(default_length=default_length)
        self._horizon = 0.0
        self._last_shrink: float | None = None

    def on_run_start(self) -> None:
        """Reset the demand forecaster and the shrink cooldown."""
        self._forecaster.on_run_start()
        self._last_shrink = None

    def on_request_finished(self, request: Request, time: float) -> None:
        """Feed the finished request's output length to the forecaster."""
        self._forecaster.on_request_finished(request, time)

    def bind_warmup(self, warmup_delay: float) -> None:
        """Adopt the fleet's warm-up delay as the forecast horizon."""
        self._horizon = warmup_delay

    # ------------------------------------------------------------ forecasting
    def predicted_fleet_demand_tokens(self, view: FleetView) -> float:
        """Forecast peak KV tokens the fleet must hold within the horizon."""
        resident = sum(self._forecaster.predicted_peaks(view.snapshots))
        expected_request = view.mean_arrival_tokens + self._forecaster.history.mean()
        incoming = view.arrival_rate * self._horizon * expected_request
        return resident + incoming

    def target_size(self, view: FleetView) -> int:
        """Size the fleet so forecast peak KV demand fits the target utilisation."""
        current = view.provisioned
        capacity = view.replica_capacity
        if capacity <= 0:
            return current
        demand = self.predicted_fleet_demand_tokens(view)
        # Capacity-unit arithmetic ("A100-equivalents"): replicas may differ
        # in KV capacity, so compare predicted demand against the *capacity*
        # already provisioned and buy the deficit in units of the next
        # launch's capacity.
        deficit = demand / self.target_utilization - view.provisioned_capacity
        needed = max(1, current + math.ceil(deficit / (view.launch_capacity or capacity)))
        if needed >= current:
            return needed
        # Shrink at most one replica per cooldown; forecasts dip faster than
        # traffic truly recedes, and retiring capacity is the risky direction.
        if self._last_shrink is not None and view.time - self._last_shrink < self.scale_down_cooldown:
            return current
        if view.queued_requests > 0:
            return current
        # Scale-down retires a whole replica of the cluster's choosing, which
        # on a mixed fleet may be the *largest* one.  Only shrink when the
        # capacity surplus (-deficit) covers that worst case, or a dip worth
        # one small replica would retire a big one and the next decision
        # would immediately re-buy it (warm-up flapping).
        if -deficit < max(s.token_capacity for s in view.snapshots):
            return current
        self._last_shrink = view.time
        return current - 1

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return (
            f"{self.name} (util<={self.target_utilization:g}, horizon={self._horizon:g}s, "
            f"window={WINDOW_SIZE})"
        )


class Autoscaler:
    """Drives an :class:`AutoscalerPolicy` on a fixed decision cadence.

    The :class:`~repro.serving.cluster.ClusterSimulator` asks
    :attr:`next_decision_time` when scheduling events, reports every routed
    arrival via :meth:`note_arrival` (building the windowed saturation and
    arrival-rate statistics policies consume), and at each decision instant
    builds a :class:`FleetView` with :meth:`make_view` and passes it to
    :meth:`evaluate`; the returned target — clamped to
    ``[1, max_replicas]`` — is then executed by the cluster
    (launch warming replicas or drain active ones).  One instance may serve
    runs one after another: each run starts with :meth:`on_run_start`.

    Args:
        policy: sizing policy instance, or a registry name (``static``,
            ``reactive``, ``predictive``).
        interval: seconds of fleet clock between decisions.
        max_replicas: upper clamp on the provisioned fleet size.
        warmup_delay: seconds a newly launched replica spends warming (cold
            engine, not routable) before it can serve.
        sample_window: seconds of arrival history the traffic statistics
            aggregate over.
    """

    def __init__(
        self,
        policy: AutoscalerPolicy | str,
        interval: float = 1.0,
        max_replicas: int = 8,
        warmup_delay: float = 0.0,
        sample_window: float = 5.0,
    ) -> None:
        if not 0 < interval < math.inf:
            raise ValueError("interval must be positive and finite")
        if max_replicas < 1:
            raise ValueError("max_replicas must be positive")
        if not 0 <= warmup_delay < math.inf:
            raise ValueError("warmup_delay must be non-negative and finite")
        if not 0 < sample_window < math.inf:
            raise ValueError("sample_window must be positive and finite")
        self.policy = create_autoscale_policy(policy) if isinstance(policy, str) else policy
        self.interval = interval
        self.max_replicas = max_replicas
        self.warmup_delay = warmup_delay
        self.sample_window = sample_window
        if isinstance(self.policy, PredictivePolicy):
            self.policy.bind_warmup(warmup_delay)
        #: ``(time, saturated_fraction, prompt_tokens)`` per routed arrival.
        self._samples: deque[tuple[float, float, int]] = deque()
        self._next_decision = interval

    # ------------------------------------------------------------- lifecycle
    def on_run_start(self) -> None:
        """Reset decision cadence, traffic window, and policy state."""
        self._samples.clear()
        self._next_decision = self.interval
        self.policy.on_run_start()

    def on_request_finished(self, request: Request, time: float) -> None:
        """Forward completions to the policy (learning forecasters)."""
        self.policy.on_request_finished(request, time)

    # ------------------------------------------------------------ observation
    @property
    def next_decision_time(self) -> float:
        """Fleet-clock instant of the next scheduled decision."""
        return self._next_decision

    def note_arrival(self, time: float, saturated_fraction: float, prompt_tokens: int) -> None:
        """Record the fleet state one newly arrived (not re-routed) request observed."""
        self._samples.append((time, saturated_fraction, prompt_tokens))
        self._trim(time)

    def _trim(self, now: float) -> None:
        horizon = now - self.sample_window
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def make_view(
        self,
        time: float,
        snapshots: Sequence[ReplicaView],
        num_warming: int = 0,
        warming_capacity: int = 0,
        launch_capacity: int = 0,
    ) -> FleetView:
        """Assemble the policy-facing view for one decision instant."""
        self._trim(time)
        samples = self._samples
        if samples:
            saturation_rate = sum(s[1] for s in samples) / len(samples)
            # Early in a run less than one full window has elapsed; dividing
            # by the elapsed span instead of the nominal window keeps the
            # rate honest exactly when scaling ahead of the opening burst
            # matters most.
            span = min(self.sample_window, time) if time > 0 else self.sample_window
            arrival_rate = len(samples) / span
            mean_tokens = sum(s[2] for s in samples) / len(samples)
        else:
            saturation_rate = arrival_rate = mean_tokens = 0.0
        return FleetView(
            time=time,
            snapshots=tuple(snapshots),
            num_warming=num_warming,
            saturation_rate=saturation_rate,
            arrival_rate=arrival_rate,
            mean_arrival_tokens=mean_tokens,
            warming_capacity=warming_capacity,
            launch_capacity=launch_capacity,
        )

    # -------------------------------------------------------------- deciding
    def evaluate(self, view: FleetView) -> int:
        """Clamp the policy's target for ``view`` and advance the decision cadence."""
        target = max(1, min(self.max_replicas, self.policy.target_size(view)))
        while self._next_decision <= view.time:
            self._next_decision += self.interval
        return target

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return (
            f"{self.policy.describe()} @ {self.interval:g}s, "
            f"warmup {self.warmup_delay:g}s, fleet 1..{self.max_replicas}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Autoscaler({self.describe()})"


AUTOSCALE_POLICY_REGISTRY: dict[str, type[AutoscalerPolicy]] = {
    "static": StaticPolicy,
    "reactive": ReactivePolicy,
    "predictive": PredictivePolicy,
}


def create_autoscale_policy(name: str, **kwargs) -> AutoscalerPolicy:
    """Instantiate an autoscaling policy by registry name.

    Args:
        name: one of ``static``, ``reactive``, ``predictive``.
        **kwargs: forwarded to the policy constructor.

    Raises:
        KeyError: if the name is unknown.
        TypeError: if a keyword argument is not accepted by the policy,
            listing the keywords it does accept.
    """
    return instantiate("autoscale policy", AUTOSCALE_POLICY_REGISTRY, name, kwargs)


def available_autoscale_policies() -> list[str]:
    """Names of all registered autoscaling policies."""
    return sorted(AUTOSCALE_POLICY_REGISTRY)
