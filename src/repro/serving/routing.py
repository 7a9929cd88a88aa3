"""Request routers for multi-replica cluster serving.

A :class:`Router` answers one question per arriving request: *which replica
should serve it?*  The :class:`~repro.serving.cluster.ClusterSimulator`
hands the router a :class:`ReplicaView` per routable replica — only
scheduler-visible state (KV occupancy; per resident request, running then
queued, its context tokens, generated-so-far count and remaining
``max_new_tokens`` budget; the replica's platform and relative speed), never
the hidden true output lengths — and expects back the ``replica_id`` of one
of those views.  Routers only place: admission control belongs to each
replica's scheduler, which keeps a request queued until it fits (the paper's
Algorithm 1), so a router never turns a request away.

Because a fleet may mix accelerator generations
(``ClusterSimulator(platforms=[a100, a100, rtx4090])``), replicas can differ
in both KV capacity and decode speed.  Views therefore expose
**capacity-normalised** signals — :attr:`ReplicaView.load_fraction`,
:attr:`ReplicaView.headroom_fraction`, and a :attr:`ReplicaView.speed_factor`
derived from the cost model — and the load-sensitive routers compare replicas
on fractions of *their own* capacity rather than absolute token counts, so a
24 GB card is never mistaken for an 80 GB one.  On homogeneous fleets the
normalised comparisons order replicas exactly as the absolute ones did.

Five policies are provided, in increasing order of awareness:

* :class:`RoundRobinRouter` — cycles through replicas, load-blind;
* :class:`LeastOutstandingRouter` — fewest in-flight (running + queued)
  requests, the classic load-balancer heuristic (capacity-blind on purpose:
  it is the baseline heterogeneous fleets expose);
* :class:`LeastKVLoadRouter` — lowest fractional KV-cache occupancy counting
  queued prompt demand, a memory-*present* policy;
* :class:`MemoryAwareRouter` — largest predicted future-memory headroom as a
  fraction of the replica's own capacity, weighted by replica speed.  It
  maintains the same sliding output-length history the Past-Future scheduler
  uses and evaluates every candidate's peak future memory in one pass (one
  prediction over all candidates' requests, then one plain-Python Eq. 2–4
  evaluation per busy candidate via
  :func:`repro.core.future_memory.peak_future_memory`), so a replica whose
  batch *will* balloon is avoided even while its present occupancy still
  looks low;
* :class:`SessionAffinityRouter` — memory-aware placement plus *session
  stickiness*: follow-up turns of a multi-turn session are routed back to
  the replica holding the session's cached KV prefix (see
  :class:`repro.memory.prefix_cache.PrefixCache`), falling back to
  memory-aware scoring when the home replica is saturated, draining, or
  dead.

All routers break ties deterministically in favour of the lowest replica
index, and skip saturated replicas unless every replica is saturated.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from repro.core.future_memory import peak_future_memory
from repro.core.history import WINDOW_SIZE, OutputLengthHistory
from repro.engine.request import Request
from repro.hardware.platform import Platform
from repro.registry import instantiate
from repro.serving.faults import HEALTH_HEALTHY, HEALTH_STATES
from repro.workloads.spec import RequestSpec


@dataclass(frozen=True)
class ReplicaView:
    """Scheduler-visible view of one replica at a routing decision.

    Each resident request appears once, at the same index of the three
    per-request columns: the running batch first, then the waiting queue.
    Columns stay tuples: the memory-aware router concatenates every
    candidate's columns into one array per decision, and the other routers
    never read them.

    Attributes:
        replica_id: index of the replica within the cluster.
        token_capacity: KV-cache token slots of the replica's platform.
        used_tokens: token slots currently occupied by the running batch.
        current_tokens: per resident request, KV tokens it holds now (prompt +
            generated) or needs at admission (prompt, plus regenerated
            tokens for evictees); running requests first, then queued ones.
        generated_tokens: per request, output tokens generated so far
            (non-zero for queued evictees); aligned with ``current_tokens``.
        remaining_cap_tokens: per request, output tokens its
            ``max_new_tokens`` still allows; aligned with ``current_tokens``.
        num_running: how many leading entries are running (resident in the
            KV cache); the rest are queued for admission.
        platform: the replica's deployment target; heterogeneous fleets carry
            a different platform per replica.  ``None`` for hand-built views
            in tests and policy code that never inspects hardware.
        speed_factor: decode speed relative to the fastest platform in the
            fleet (1.0 for the fastest; see
            :meth:`repro.engine.cost_model.CostModel.relative_speed`).
            Homogeneous fleets carry 1.0 everywhere.
        health: the replica's health state as fault injection sees it (see
            :mod:`repro.serving.faults`): ``healthy`` by default,
            ``degraded`` inside a straggler window.  Draining and dead
            replicas leave the routable set, so no view reports them.
            Routers must respect it — the shared :meth:`Router.candidates`
            filter prefers healthy replicas whenever any is available.
    """

    replica_id: int
    token_capacity: int
    used_tokens: int
    current_tokens: tuple[int, ...] = ()
    generated_tokens: tuple[int, ...] = ()
    remaining_cap_tokens: tuple[int, ...] = ()
    num_running: int = 0
    platform: Platform | None = None
    speed_factor: float = 1.0
    health: str = HEALTH_HEALTHY

    def __post_init__(self) -> None:
        if self.health not in HEALTH_STATES:
            raise ValueError(f"health must be one of {HEALTH_STATES}, got {self.health!r}")
        if self.token_capacity <= 0:
            raise ValueError("token_capacity must be positive")
        if self.used_tokens < 0:
            raise ValueError("used_tokens must be non-negative")
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if not len(self.current_tokens) == len(self.generated_tokens) == len(self.remaining_cap_tokens):
            raise ValueError("per-request token columns must be aligned")
        if not 0 <= self.num_running <= len(self.current_tokens):
            raise ValueError("num_running must lie between 0 and the number of requests")

    @property
    def num_waiting(self) -> int:
        """Requests queued for admission on the replica."""
        return len(self.current_tokens) - self.num_running

    @property
    def outstanding(self) -> int:
        """In-flight requests: running plus queued."""
        return self.num_running + self.num_waiting

    @property
    def queued_demand_tokens(self) -> int:
        """Prompt tokens waiting to be admitted."""
        return sum(self.current_tokens[self.num_running :])

    @property
    def load_fraction(self) -> float:
        """Occupied plus queued-prompt tokens as a fraction of capacity."""
        return (self.used_tokens + self.queued_demand_tokens) / self.token_capacity

    @property
    def headroom_tokens(self) -> int:
        """Token slots left after resident tokens and queued prompt demand.

        Negative when the admission queue already oversubscribes the pool.
        This is *present-state* headroom; the predicted-peak (Eq. 2–4)
        counterpart lives on the router that owns the length history —
        :meth:`MemoryAwareRouter.predicted_peaks`.
        """
        return self.token_capacity - self.used_tokens - self.queued_demand_tokens

    @property
    def headroom_fraction(self) -> float:
        """Present headroom as a fraction of *this replica's* capacity.

        The capacity-normalised form of :attr:`headroom_tokens`: 0.3 means
        the same relative slack on a 24 GB card as on an 80 GB one, which is
        what makes replicas of different generations comparable.  Its
        predicted-peak counterpart, normalised the same way, is what
        :meth:`MemoryAwareRouter.placement_scores` ranks on.
        """
        return self.headroom_tokens / self.token_capacity

    @property
    def saturated(self) -> bool:
        """Whether the replica cannot absorb more work without stalling.

        A replica counts as saturated when its resident KV tokens plus the
        prompts already queued meet or exceed its capacity: any further
        request would sit behind demand that already fills the pool.
        """
        return self.used_tokens + self.queued_demand_tokens >= self.token_capacity

    def trace_signals(self) -> dict:
        """The scoring signals routers rank on, for ``request.routed`` events.

        A small JSON-serialisable snapshot of the view at decision time, so
        exported timelines show *why* a replica won the placement.
        """
        return {
            "running": self.num_running,
            "waiting": self.num_waiting,
            "load_fraction": round(self.load_fraction, 4),
            "headroom_fraction": round(self.headroom_fraction, 4),
            "saturated": self.saturated,
            "speed_factor": self.speed_factor,
            "health": self.health,
        }


class Router(abc.ABC):
    """Placement policy mapping an arriving request to a replica id.

    Subclasses implement :meth:`decide`.
    """

    #: human-readable policy name used in tables and figures.
    name: str = "abstract"

    # ------------------------------------------------------------------ API
    @abc.abstractmethod
    def decide(self, spec: RequestSpec, views: Sequence[ReplicaView]) -> int:
        """The ``replica_id`` of the view that should serve ``spec``.

        Implementations must be deterministic given the same views and
        internal state, and must return the ``replica_id`` of one of the
        *given* views.  With an elastic fleet (see
        :mod:`repro.serving.autoscale`) the view set changes between calls
        and ids are not contiguous — replicas launch, warm up, drain, and
        retire, and retired ids are never reused — so ids must be treated as
        opaque keys, never as list indices.  The
        :class:`~repro.serving.cluster.ClusterSimulator` raises
        ``RuntimeError`` if a router returns an id that is absent from the
        views (e.g. a warming, draining, or retired replica).

        Args:
            spec: the arriving request (including its ``sla_class``).
            views: one :class:`ReplicaView` per routable replica.
        """

    # ------------------------------------------------------------- lifecycle
    def on_run_start(self) -> None:
        """Called once before a cluster run begins (reset mutable state)."""

    def on_request_finished(self, request: Request, time: float) -> None:
        """Called when any replica finishes a request (for learning policies)."""

    # -------------------------------------------------------------- utilities
    @staticmethod
    def candidates(views: Sequence[ReplicaView]) -> list[ReplicaView]:
        """Routable replicas, best health tier first, saturation filtered.

        Non-saturated healthy replicas are preferred; if none exists, other
        non-saturated replicas (e.g. ``degraded`` stragglers) are used, and
        only a fully saturated fleet falls back to every view.  With every
        view healthy — any run without fault injection — this is exactly the
        historical "non-saturated or all" filter.
        """
        if not views:
            raise ValueError("cannot route with zero replicas")
        open_replicas = [view for view in views if not view.saturated]
        healthy = [view for view in open_replicas if view.health == HEALTH_HEALTHY]
        return healthy or open_replicas or list(views)

    def _pick_min(
        self,
        views: Sequence[ReplicaView],
        key: Callable[[ReplicaView], float],
    ) -> int:
        """Lowest-key candidate, ties broken by lowest replica id."""
        best = min(self.candidates(views), key=lambda view: (key(view), view.replica_id))
        return best.replica_id

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


class RoundRobinRouter(Router):
    """Cycle through replicas in id order, skipping saturated ones.

    The cursor remembers the last *id* served rather than a list position, so
    the rotation survives an elastic fleet's churn: ids may appear, disappear,
    and leave gaps between calls, and the ring is simply the sorted eligible
    ids with wrap-around past the last one served.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._last: int | None = None

    def on_run_start(self) -> None:
        """Forget the cursor so replays of a run are deterministic."""
        self._last = None

    def decide(self, spec: RequestSpec, views: Sequence[ReplicaView]) -> int:
        """The next routable replica id after the cursor."""
        eligible = sorted(view.replica_id for view in self.candidates(views))
        chosen = next(
            (replica_id for replica_id in eligible if self._last is None or replica_id > self._last),
            eligible[0],
        )
        self._last = chosen
        return chosen


class LeastOutstandingRouter(Router):
    """Route to the replica with the fewest in-flight requests.

    Deliberately capacity-blind: outstanding-request counts ignore how much
    KV pool each replica actually has, which is exactly the baseline the
    heterogeneous-fleet comparison (fig12) measures the normalised routers
    against.
    """

    name = "least-outstanding"

    def decide(self, spec: RequestSpec, views: Sequence[ReplicaView]) -> int:
        """The candidate replica with the fewest in-flight requests."""
        return self._pick_min(views, lambda view: view.outstanding)


class LeastKVLoadRouter(Router):
    """Route to the replica with the lowest fractional KV-cache load.

    Load counts both resident tokens and queued prompt demand, normalised by
    each replica's *own* capacity (:attr:`ReplicaView.load_fraction`), so a
    deep queue is not mistaken for an empty pool and a small-memory replica
    is not mistaken for a large one.
    """

    name = "least-kv-load"

    def decide(self, spec: RequestSpec, views: Sequence[ReplicaView]) -> int:
        """The candidate replica with the lowest fractional KV load."""
        return self._pick_min(views, lambda view: view.load_fraction)


class MemoryAwareRouter(Router):
    """Route to the replica with the best speed-weighted predicted headroom.

    The router keeps the paper's sliding window of finished output lengths
    (fleet-wide — every replica's completions feed one history) and, per
    replica, predicts each in-flight request's remaining generation as the
    conditional mean of the window above what the request has already
    produced.  The replica's *predicted peak* future memory then follows from
    Eq. 2–4, and the placement score is the headroom left after placing the
    arriving request, **as a fraction of that replica's own capacity**,
    weighted by the replica's relative decode speed:

    * positive headroom is multiplied by :attr:`ReplicaView.speed_factor`
      (equal relative slack goes to the faster card, which drains it sooner);
    * negative headroom (oversubscription) is divided by it (overloading a
      slow card hurts longer than overloading a fast one).

    On a homogeneous fleet every ``speed_factor`` is 1.0 and every capacity
    equal, so the ordering — and therefore every routing decision — is
    identical to the absolute-headroom comparison this replaces.

    The window is the paper's :data:`~repro.core.history.WINDOW_SIZE`.

    Args:
        default_length: output length assumed before any request finishes.
    """

    name = "memory-aware"

    def __init__(self, default_length: int = 2048) -> None:
        self.history = OutputLengthHistory(default_length=default_length)
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        self._table_version = -1

    def on_run_start(self) -> None:
        """Drop the fleet-wide output-length history for a fresh run."""
        self.history.clear()

    def on_request_finished(self, request: Request, time: float) -> None:
        """Record the finished request's output length (fleet-wide window)."""
        self.history.record(max(request.generated_tokens, 1))

    # ------------------------------------------------------------ prediction
    def _history_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted window and its suffix sums, cached until the window changes.

        The sorted window is the history's own version-cached
        :meth:`~repro.core.history.OutputLengthHistory.sorted_snapshot`, and
        the suffix sums are keyed on the same ``history.version``, so neither
        is rebuilt per replica or per decision while no request finishes.
        """
        if self._table_version != self.history.version:
            lengths = self.history.sorted_snapshot()
            self._table = lengths, np.concatenate([np.cumsum(lengths[::-1])[::-1], [0]])
            self._table_version = self.history.version
        return self._table

    def _expected_remaining(self, generated: np.ndarray) -> np.ndarray:
        """Conditional-mean remaining output tokens given ``generated`` so far.

        For each request the prediction is ``E[l | l > generated] −
        generated`` over the historical window; requests that already exceed
        every observed length fall back to one token (the most optimistic
        consistent estimate, matching the Past-Future scheduler).
        """
        lengths, suffix_sums = self._history_table()
        starts = np.searchsorted(lengths, generated, side="right")
        counts = lengths.size - starts
        safe_counts = np.maximum(counts, 1)
        conditional_mean = suffix_sums[starts] / safe_counts
        expected_total = np.where(counts > 0, np.ceil(conditional_mean), generated + 1)
        return np.maximum(expected_total.astype(np.int64) - generated, 1)

    def predicted_peaks(self, views: Sequence[ReplicaView]) -> list[int]:
        """Predicted peak future memory of each view's in-flight work, in order.

        All views' requests share one :meth:`_expected_remaining` call, and
        each busy view is then one plain-Python Eq. 2–4 evaluation
        (:func:`~repro.core.future_memory.peak_future_memory`); an idle view
        scores 0 without either.  Each request's predicted growth is clamped
        to its ``max_new_tokens`` budget, like the Past-Future scheduler: a
        2048-token cold-start default must not predict growth a 128-cap
        request can never occupy.
        """
        busy = [view for view in views if view.current_tokens]
        if not busy:
            return [0] * len(views)  # idle replicas are common and need no numpy call
        generated = np.array(sum((view.generated_tokens for view in busy), ()), dtype=np.int64)
        caps = np.array(sum((view.remaining_cap_tokens for view in busy), ()), dtype=np.int64)
        remaining = iter(np.maximum(np.minimum(self._expected_remaining(generated), caps), 1).tolist())
        return [
            peak_future_memory(view.current_tokens, list(islice(remaining, len(view.current_tokens))))
            if view.current_tokens
            else 0
            for view in views
        ]

    def placement_scores(self, spec: RequestSpec, views: Sequence[ReplicaView]) -> list[float]:
        """Speed-weighted normalised headroom left after placing ``spec``, per view.

        Higher is better.  The arriving request's prompt footprint is charged
        against each replica's predicted headroom before normalising, so a
        request that simply does not fit a small replica scores deeply
        negative there rather than hiding behind a rosy fraction.
        """
        scores = []
        for view, peak in zip(views, self.predicted_peaks(views)):
            placed = (view.token_capacity - peak - spec.prompt_tokens) / view.token_capacity
            scores.append(placed * view.speed_factor if placed >= 0 else placed / view.speed_factor)
        return scores

    def _pick_best(self, spec: RequestSpec, candidates: list[ReplicaView]) -> int:
        """Best-scoring candidate, ties broken by lowest replica id."""
        scores = self.placement_scores(spec, candidates)
        # Largest score == smallest negated score, so ties favour the lowest replica id.
        best = min(zip(scores, candidates), key=lambda pair: (-pair[0], pair[1].replica_id))
        return best[1].replica_id

    def decide(self, spec: RequestSpec, views: Sequence[ReplicaView]) -> int:
        """The candidate with the best speed-weighted headroom score."""
        return self._pick_best(spec, self.candidates(views))

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return f"{self.name} (window={WINDOW_SIZE})"


class SessionAffinityRouter(MemoryAwareRouter):
    """Route follow-up session turns back to the replica holding their prefix.

    Multi-turn sessions (see :mod:`repro.workloads.interactions`) carry a
    ``session_id``, and each finished turn's KV context can be retained in
    the serving replica's :class:`~repro.memory.prefix_cache.PrefixCache`.
    A follow-up turn only *hits* that cache if it lands on the same replica,
    so this router remembers where it last placed each session — the
    session's **home** — and prefers the home replica whenever it is still a
    viable candidate.

    The fallback is full memory-aware placement (the parent policy), which
    fires when:

    * the request carries no ``session_id`` (sessionless traffic is routed
      exactly as :class:`MemoryAwareRouter` would);
    * the session has no home yet (its first turn);
    * the home replica is saturated, unhealthy, draining, dead, or has left
      the fleet — :meth:`Router.candidates` filters those out, so a crashed
      home degrades gracefully to load-aware placement instead of stalling
      the session.

    Whatever replica wins becomes the session's new home, so sessions that
    are retried or re-placed after a crash *re-home* on their next turn and
    regain affinity from there on.
    """

    name = "session-affinity"

    def __init__(self) -> None:
        super().__init__()
        self._homes: dict[str, int] = {}

    def on_run_start(self) -> None:
        """Forget session homes and the length history for a fresh run."""
        super().on_run_start()
        self._homes.clear()

    def decide(self, spec: RequestSpec, views: Sequence[ReplicaView]) -> int:
        """The session's home replica when viable, else the memory-aware pick."""
        candidates = self.candidates(views)
        if spec.session_id is None:
            return self._pick_best(spec, candidates)
        home = self._homes.get(spec.session_id)
        if home is not None and any(view.replica_id == home for view in candidates):
            chosen = home
        else:
            chosen = self._pick_best(spec, candidates)
        self._homes[spec.session_id] = chosen
        return chosen


RouterFactory = Callable[..., Router]

ROUTER_REGISTRY: dict[str, RouterFactory] = {
    "round-robin": RoundRobinRouter,
    "least-outstanding": LeastOutstandingRouter,
    "least-kv-load": LeastKVLoadRouter,
    "memory-aware": MemoryAwareRouter,
    "session-affinity": SessionAffinityRouter,
}


def create_router(name: str, **kwargs) -> Router:
    """Instantiate a router by registry name.

    Args:
        name: one of ``round-robin``, ``least-outstanding``,
            ``least-kv-load``, ``memory-aware``, ``session-affinity``.
        **kwargs: forwarded to the router constructor, e.g. the
            memory-aware routers' ``default_length``.

    Raises:
        KeyError: if the name is unknown.
        TypeError: if a keyword argument is not accepted by the router,
            listing the keywords it does accept.
    """
    return instantiate("router", ROUTER_REGISTRY, name, kwargs)


def available_routers() -> list[str]:
    """Names of all registered routers, sorted for deterministic listings."""
    return sorted(ROUTER_REGISTRY)
