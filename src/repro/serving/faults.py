"""Seeded, deterministic fault injection for cluster serving.

Every replica the simulator launches is perfectly reliable by default, which
makes the fleet a poor testbed for the availability questions production
serving actually faces: GPUs fall over mid-decode, and one card silently runs
3x slow.  This module models those two failure classes as *data*, so a run
with faults is exactly as reproducible as a run without:

* :class:`ReplicaCrash` — a replica dies at an instant; every in-flight and
  queued request on it is aborted (partial tokens are accounted as lost
  work) and, under a :class:`RetryPolicy`, parked and routed again after
  its backoff.
* :class:`Straggler` — a transient slowdown window multiplying the
  replica's cost model by a factor; the replica is marked ``degraded`` so
  health-aware routers steer around it.

The determinism contract (see ``docs/resilience.md``): a
:class:`FaultPlan` is a pure value — the injector derives every fault time
at construction, and the one probabilistic decision, retry jitter, comes
from ``sha256(seed, request_id, attempt)``, so two runs of the same plan
over the same workload are bit-identical, and a run with ``faults=None`` is
byte-identical to one built before this module existed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.cost_model import CostModel, StepWork

# --------------------------------------------------------------------- health
#: Replica serving normally.
HEALTH_HEALTHY = "healthy"
#: Replica serving but impaired (inside a straggler window).
HEALTH_DEGRADED = "degraded"

#: The health a routable replica can report, healthy first.  Draining and
#: dead replicas are not routable, so they have no health state.
HEALTH_STATES = (HEALTH_HEALTHY, HEALTH_DEGRADED)

# -------------------------------------------------------------- typed reasons
#: Reject reason for work lost to a replica crash with no retry policy.
REASON_REPLICA_CRASH = "replica-crash"
#: Reject reason when a request's retry attempt budget is exhausted.
REASON_RETRIES_EXHAUSTED = "retries-exhausted"
#: Reject reason for requests still parked when the run terminates
#: abnormally (step/time limits, stall guard) — they must land in
#: ``reject_reasons`` rather than vanish from accounting.
REASON_UNROUTED = "unrouted-at-end"
#: Reject reason when an arrival finds no routable replica and none warming.
REASON_NO_REPLICAS = "no-replicas"


def hash_fraction(*parts: object) -> float:
    """Uniform fraction in ``[0, 1)`` derived from a sha256 of ``parts``.

    The basis of retry jitter: keyed on stable identifiers (seed, request
    id, attempt number) rather than an RNG stream, so the outcome for one
    request cannot depend on how many draws *other* requests consumed
    before it.
    """
    digest = hashlib.sha256("\x1f".join(str(part) for part in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


# ----------------------------------------------------------------- fault specs
@dataclass(frozen=True)
class ReplicaCrash:
    """Kill replica ``replica`` at fleet-clock ``time``."""

    time: float
    replica: int

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:
            raise ValueError(f"crash time must be finite and non-negative, got {self.time!r}")
        if self.replica < 0:
            raise ValueError("crash replica id must be non-negative")


@dataclass(frozen=True)
class Straggler:
    """Multiply replica ``replica``'s iteration cost by ``slowdown`` for a window."""

    start: float
    duration: float
    replica: int
    slowdown: float = 3.0

    def __post_init__(self) -> None:
        if not 0 <= self.start < math.inf:
            raise ValueError(f"straggler start must be finite and non-negative, got {self.start!r}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"straggler duration must be finite and positive, got {self.duration!r}")
        if not 1.0 < self.slowdown < math.inf:
            raise ValueError(f"straggler slowdown must be finite and exceed 1.0, got {self.slowdown!r}")
        if self.replica < 0:
            raise ValueError("straggler replica id must be non-negative")

    @property
    def end(self) -> float:
        """Instant at which the replica recovers full speed."""
        return self.start + self.duration


# ---------------------------------------------------------------- retry policy
#: Largest retry jitter, as a fraction of the backoff.
_RETRY_JITTER = 0.1
#: Backoff growth per attempt, and its cap in seconds.
_RETRY_MULTIPLIER = 2.0
_MAX_RETRY_DELAY = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attempt ``k`` (0-based) waits ``min(base_delay * 2**k,
    _MAX_RETRY_DELAY)`` seconds, plus up to 10% jitter drawn from
    :func:`hash_fraction` of the seed, request id, and attempt — so two runs
    of the same plan back off identically, and reordering unrelated requests
    cannot shift anyone's delays.  ``delay`` returns ``None`` once the
    attempt budget is exhausted; the cluster then rejects the request with
    :data:`REASON_RETRIES_EXHAUSTED`.
    """

    base_delay: float = 0.05
    max_attempts: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.base_delay <= _MAX_RETRY_DELAY:
            raise ValueError(
                f"retry base_delay must be in (0, {_MAX_RETRY_DELAY:g}] s, got {self.base_delay!r}"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay(self, request_id: str, attempt: int) -> float | None:
        """Backoff before retry number ``attempt`` (0-based), or ``None``.

        ``None`` means the budget is spent: ``attempt`` of ``max_attempts``
        retries have already been dispatched for this request.
        """
        if attempt >= self.max_attempts:
            return None
        backoff = min(self.base_delay * _RETRY_MULTIPLIER**attempt, _MAX_RETRY_DELAY)
        return backoff * (1.0 + _RETRY_JITTER * hash_fraction(self.seed, request_id, attempt))

    def describe(self) -> str:
        """One-line summary for result tables."""
        return (
            f"retry(base={self.base_delay:g}s x{_RETRY_MULTIPLIER:g} "
            f"cap={_MAX_RETRY_DELAY:g}s attempts={self.max_attempts})"
        )


# ------------------------------------------------------------------ fault plan
@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded failure schedule for one cluster run.

    A pure value: attach the same plan to two simulators over the same
    workload and the runs are bit-identical.  ``retry_policy=None`` turns
    off recovery (lost work is rejected with typed reasons instead of
    re-dispatched) — the "no recovery" baseline the fig14 benchmark
    degrades.
    """

    crashes: tuple[ReplicaCrash, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    seed: int = 0
    retry_policy: RetryPolicy | None = field(default_factory=RetryPolicy)
    #: launch a cold replacement replica the instant one crashes.
    replace_crashed: bool = True
    #: warm-up delay of replacement launches (seconds).
    replacement_warmup: float = 0.0

    def __post_init__(self) -> None:
        # Accept lists for ergonomics but store tuples (frozen hashability).
        for name in ("crashes", "stragglers"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not 0 <= self.replacement_warmup < math.inf:
            raise ValueError(
                f"replacement_warmup must be finite and non-negative, got {self.replacement_warmup!r}"
            )

    def describe(self) -> str:
        """One-line plan summary for result tables and logs."""
        parts = []
        if self.crashes:
            parts.append(f"{len(self.crashes)} crash")
        if self.stragglers:
            parts.append(f"{len(self.stragglers)} straggler")
        schedule = ", ".join(parts) if parts else "no faults"
        recovery = self.retry_policy.describe() if self.retry_policy else "no-retry"
        return f"faults(seed={self.seed}: {schedule}; {recovery})"


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the run's fault log (``ClusterResult.fault_events``)."""

    time: float
    kind: str
    replica: int | None = None
    detail: dict = field(default_factory=dict)


# --------------------------------------------------------------- fault injector
#: Fault-action kinds, in intra-instant application order.
_ACTION_ORDER = ("crash", "straggler-end", "straggler-start")


@dataclass(frozen=True)
class _FaultAction:
    """One scheduled point action derived from the plan at construction."""

    time: float
    order: int
    kind: str
    replica: int
    fault: object

    def __lt__(self, other: "_FaultAction") -> bool:
        return (self.time, self.order) < (other.time, other.order)


class FaultInjector:
    """Turns a :class:`FaultPlan` into a deterministic event timeline.

    Built once per run by the cluster simulator.  Every point action (crash,
    straggler start/end) is derived and sorted at construction, so the
    injection order at equal times is a pure function of the plan.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        actions: list[_FaultAction] = []

        def add(time: float, kind: str, replica: int, fault: object) -> None:
            actions.append(
                _FaultAction(
                    time=time,
                    order=_ACTION_ORDER.index(kind) * 1_000_000 + len(actions),
                    kind=kind,
                    replica=replica,
                    fault=fault,
                )
            )

        for crash in plan.crashes:
            add(crash.time, "crash", crash.replica, crash)
        for straggler in plan.stragglers:
            add(straggler.start, "straggler-start", straggler.replica, straggler)
            add(straggler.end, "straggler-end", straggler.replica, straggler)
        self._actions = sorted(actions)
        self._cursor = 0

    def next_event_time(self) -> float | None:
        """Fleet-clock instant of the next scheduled fault action, if any."""
        if self._cursor >= len(self._actions):
            return None
        return self._actions[self._cursor].time

    def pop_due(self, time: float) -> list[_FaultAction]:
        """Consume and return every action scheduled at or before ``time``."""
        due: list[_FaultAction] = []
        while self._cursor < len(self._actions) and self._actions[self._cursor].time <= time:
            due.append(self._actions[self._cursor])
            self._cursor += 1
        return due


# ------------------------------------------------------------ straggler model
class SlowdownCostModel:
    """Cost-model wrapper multiplying every iteration latency by a factor.

    Wraps a replica's :class:`~repro.engine.cost_model.CostModel` for the
    duration of a straggler window.  Both the scalar reference path
    (:meth:`step_seconds`) and the event jump's iteration stream
    (:meth:`decode_durations`) multiply the wrapped model's float by the
    *same* factor, so the event-jump equivalence guarantee (fast ==
    reference, bit-identical) survives the slowdown.  The engine reads
    nothing else from its cost model.
    """

    def __init__(self, inner: CostModel, slowdown: float) -> None:
        if slowdown <= 0:
            raise ValueError("slowdown must be positive")
        self.inner = inner
        self.slowdown = slowdown

    def step_seconds(self, work: StepWork) -> float:
        """Slowed latency of one iteration."""
        return self.inner.step_seconds(work) * self.slowdown

    def decode_durations(self, decode_requests: int, start_context_tokens: int) -> Iterator[float]:
        """Slowed latencies of consecutive decode-only iterations, one per ``next``."""
        slowdown = self.slowdown
        for duration in self.inner.decode_durations(decode_requests, start_context_tokens):
            yield duration * slowdown
