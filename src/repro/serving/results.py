"""Run results: everything a finished simulation exposes to analysis code."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.engine import EngineStats, JumpStats
from repro.engine.request import Request
from repro.memory.pool_stats import MemoryTimeline
from repro.memory.prefix_cache import PrefixCacheStats
from repro.metrics.fleet import (
    FleetSizeSample,
    FleetSummary,
    ReplicaLifetime,
    load_imbalance,
    summarize_fleet,
    total_replica_seconds,
)
from repro.metrics.fairness import FairnessSummary, summarize_tenant_fairness
from repro.metrics.goodput import ThroughputSummary, summarize_throughput
from repro.metrics.latency import LatencySummary, summarize_latency
from repro.serving.sla import SLASpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.metrics.sessions import SessionSummary


class _RequestAggregates:
    """Request aggregates read only from ``requests``, ``duration`` and ``rejected``.

    Shared by :class:`RunResult` (one engine over its clock) and
    :class:`ClusterResult` (every replica's requests over the fleet makespan),
    with the run's ``termination``: ``"drained"`` on a normal end, otherwise
    the stop reason (``"max_steps"``, ``"max_time"`` or ``"stall"``).
    """

    requests: list[Request]
    duration: float
    rejected: list[Request]
    termination: str

    @property
    def completed(self) -> bool:
        """Whether the run drained rather than stopping early."""
        return self.termination == "drained"

    @property
    def finished_requests(self) -> list[Request]:
        """Requests that completed generation."""
        return [r for r in self.requests if r.is_finished]

    @property
    def total_output_tokens(self) -> int:
        """Output tokens generated by finished requests."""
        return sum(r.generated_tokens for r in self.finished_requests)

    def throughput_summary(self, sla: SLASpec) -> ThroughputSummary:
        """Token-rate summary under an SLA over ``duration``."""
        return summarize_throughput(self.requests, self.duration, sla)

    def latency_summary(self) -> LatencySummary:
        """TTFT/TPOT/MTPOT summary across every request served."""
        return summarize_latency(self.requests)

    def goodput(self, sla: SLASpec) -> float:
        """Output tokens per second from SLA-compliant requests."""
        return self.throughput_summary(sla).goodput

    def throughput(self) -> float:
        """Output tokens per second regardless of SLA."""
        if self.duration <= 0:
            return 0.0
        return self.total_output_tokens / self.duration

    def fairness_summary(self, sla: SLASpec) -> FairnessSummary:
        """Per-user service summary (Jain's index, per-user goodput).

        Covers every request the run saw — served and rejected alike — so a
        user whose traffic was mostly rejected shows the low service that
        earned.  Empty (``num_tenants == 0``) when no request carried a
        ``user_id``.
        """
        return summarize_tenant_fairness(self.requests, self.duration, sla, rejected=self.rejected)


@dataclass
class RunResult(_RequestAggregates):
    """Outcome of one serving simulation run.

    ``rejected`` holds arrivals turned away before entering the engine (for a
    single-engine run that means the overload throttle, see
    :mod:`repro.serving.throttle`), with ``reject_reasons`` counting them per
    reason; both stay empty when no throttle is configured.

    ``jump_stats`` is the engine's self-profile of the event-jump fast path
    (see :class:`~repro.engine.engine.JumpStats`).  It describes *how* the
    run executed, not *what* it computed, so it is deliberately excluded
    from the result fingerprints — fast-path and reference runs of the same
    scenario produce identical fingerprints but very different jump stats.
    """

    scheduler: str
    workload: str
    platform: str
    num_clients: int
    duration: float
    requests: list[Request] = field(default_factory=list)
    engine_stats: EngineStats = field(default_factory=EngineStats)
    memory_timeline: MemoryTimeline | None = None
    token_capacity: int = 0
    termination: str = "drained"
    rejected: list[Request] = field(default_factory=list)
    reject_reasons: dict[str, int] = field(default_factory=dict)
    jump_stats: JumpStats = field(default_factory=JumpStats)
    prefix_stats: PrefixCacheStats | None = None

    @property
    def total_evictions(self) -> int:
        """Total request evictions over the run."""
        return self.engine_stats.total_evictions

    def session_summary(self, sla: SLASpec | None = None) -> "SessionSummary":
        """Per-session outcomes of multi-turn traffic.

        Folds the run's per-turn requests back into sessions (see
        :mod:`repro.metrics.sessions`), attaching the engine's prefix-cache
        counters when the run carried a cache.  Empty
        (``num_sessions == 0``) when no request belonged to a session.
        """
        from repro.metrics.sessions import summarize_sessions

        return summarize_sessions(
            self.requests,
            rejected=self.rejected,
            sla=sla,
            prefix_stats=self.prefix_stats,
        )

    def describe(self) -> str:
        """One-line run summary for logs and examples."""
        return (
            f"{self.scheduler} on {self.workload} ({self.platform}, "
            f"{self.num_clients} clients): {len(self.finished_requests)} requests, "
            f"{self.total_output_tokens} tokens in {self.duration:.1f}s, "
            f"{self.total_evictions} evictions"
        )


@dataclass
class ClusterResult(_RequestAggregates):
    """Outcome of one multi-replica cluster serving run.

    Wraps the per-replica :class:`RunResult` list produced by
    :class:`~repro.serving.cluster.ClusterSimulator` and aggregates it into
    fleet-level numbers.  ``duration`` is the fleet makespan (latest replica
    clock); each replica's own ``RunResult.duration`` is its local clock.

    Elastic runs (see :mod:`repro.serving.autoscale`) additionally carry the
    fleet-size timeline and per-replica provisioned lifetimes, from which the
    fleet-cost metrics — :attr:`replica_seconds` and
    :meth:`goodput_per_replica_second` — derive.  ``num_replicas`` counts
    every replica ever launched, including retired ones.

    ``rejected`` holds the requests the fleet turned away (throttled, or
    lost to a fault with no retry left), ``reject_reasons`` counts them per
    typed reason, and ``deferrals`` counts arrivals parked because every
    replica was still warming (one request parked twice counts twice).  On
    heterogeneous fleets ``platform`` joins the distinct platform
    descriptions; each replica's own :attr:`RunResult.platform` names its
    actual hardware.

    Fault injection (see :mod:`repro.serving.faults`) adds availability
    bookkeeping, all zero/empty on fault-free runs: ``failed`` holds the
    requests aborted by crashes (their partial token timelines intact),
    ``retries`` counts fault-driven re-dispatches, ``lost_tokens`` sums the
    output tokens thrown away with aborted work, and
    ``fault_events`` is the run's chronological fault log.
    """

    router: str
    workload: str
    platform: str
    num_replicas: int
    duration: float
    replicas: list[RunResult] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)
    termination: str = "drained"
    autoscaler: str | None = None
    fleet_timeline: list[FleetSizeSample] = field(default_factory=list)
    lifetimes: list[ReplicaLifetime] = field(default_factory=list)
    deferrals: int = 0
    reject_reasons: dict[str, int] = field(default_factory=dict)
    failed: list[Request] = field(default_factory=list)
    retries: int = 0
    lost_tokens: int = 0
    fault_events: list = field(default_factory=list)
    fault_plan: str | None = None

    # ---------------------------------------------------------- conservation
    @property
    def requests(self) -> list[Request]:
        """Every request any replica received, in replica order."""
        return [r for replica in self.replicas for r in replica.requests]

    @property
    def routed_requests(self) -> int:
        """Requests placed onto some replica."""
        return sum(len(replica.requests) for replica in self.replicas)

    @property
    def submitted_requests(self) -> int:
        """Requests the load generator produced: routed plus rejected."""
        return self.routed_requests + len(self.rejected)

    @property
    def total_evictions(self) -> int:
        """Request evictions summed across replicas."""
        return sum(replica.total_evictions for replica in self.replicas)

    @property
    def jump_stats(self) -> JumpStats:
        """Fleet-wide event-jump profile: per-replica stats merged.

        Freshly merged on each access (replica stats stay authoritative);
        like the per-replica field it never enters fingerprints.
        """
        merged = JumpStats()
        for replica in self.replicas:
            merged.merge(replica.jump_stats)
        return merged

    @property
    def prefix_stats(self) -> PrefixCacheStats | None:
        """Fleet-wide prefix-cache counters: per-replica stats merged.

        ``None`` when no replica ran with a prefix cache, so cache-less
        results are indistinguishable from pre-session ones.
        """
        per_replica = [r.prefix_stats for r in self.replicas if r.prefix_stats is not None]
        if not per_replica:
            return None
        merged = PrefixCacheStats()
        for stats in per_replica:
            merged.merge(stats)
        return merged

    # ------------------------------------------------------------- fleet cost
    @property
    def replica_seconds(self) -> float:
        """Provisioned replica-time of the run (the fleet's cost).

        A replica accrues from launch (warm-up included) until it retires or
        the run ends; a static fleet therefore accrues exactly
        ``num_replicas * duration``.
        """
        if self.lifetimes:
            return total_replica_seconds(self.lifetimes, self.duration)
        return self.num_replicas * self.duration

    def goodput_per_replica_second(self, sla: SLASpec) -> float:
        """SLA-compliant output tokens per provisioned replica-second.

        The fleet-efficiency headline: an elastic fleet may serve slightly
        less raw goodput than a peak-provisioned static one yet win here by
        shedding replica-seconds during lulls.
        """
        seconds = self.replica_seconds
        if seconds <= 0:
            return 0.0
        return self.goodput(sla) * self.duration / seconds

    # ------------------------------------------------------------ aggregates
    def fleet_summary(self, sla: SLASpec) -> FleetSummary:
        """Fleet-level goodput/latency/balance summary under an SLA.

        Includes per-SLA-class slices (:attr:`FleetSummary.per_class`) with
        class-level rejection counts.
        """
        return summarize_fleet(
            [replica.requests for replica in self.replicas],
            duration=self.duration,
            sla=sla,
            rejected=self.rejected,
            replica_seconds=self.replica_seconds,
        )

    # ---------------------------------------------------------- per-class
    def per_class_goodput_per_replica_second(self, sla: SLASpec) -> dict[str, float]:
        """Per-class goodput divided by the fleet's provisioned replica-seconds.

        The replica-seconds denominator is the whole fleet's (classes share
        the infrastructure), so the class values sum to
        :meth:`goodput_per_replica_second`.  Read straight from
        :meth:`fleet_summary` so tables and accessors can never diverge;
        classes present only through rejections report 0.0.
        """
        return {
            name: slice_summary.goodput_per_replica_second
            for name, slice_summary in self.fleet_summary(sla).per_class.items()
        }

    def session_summary(self, sla: SLASpec | None = None) -> "SessionSummary":
        """Fleet-wide per-session outcomes of multi-turn traffic.

        Covers every replica's turns plus router-rejected and crash-failed
        ones (both mark their session abandoned), with the merged
        :attr:`prefix_stats` attached.  Empty (``num_sessions == 0``) when
        no request belonged to a session.
        """
        from repro.metrics.sessions import summarize_sessions

        return summarize_sessions(
            self.requests,
            rejected=self.rejected,
            failed=self.failed,
            sla=sla,
            prefix_stats=self.prefix_stats,
        )

    @property
    def load_imbalance(self) -> float:
        """Coefficient of variation of per-replica finished output tokens."""
        return load_imbalance([replica.total_output_tokens for replica in self.replicas])

    def describe(self) -> str:
        """One-line fleet summary for logs and examples."""
        scaling = f", autoscaled by {self.autoscaler}" if self.autoscaler else ""
        if self.fault_plan:
            scaling += (
                f", {self.fault_plan}: {len(self.failed)} failed, "
                f"{self.retries} retries, "
                f"{self.lost_tokens} tokens lost"
            )
        deferred = f", {self.deferrals} deferred" if self.deferrals else ""
        return (
            f"{self.router} over {self.num_replicas} replicas on {self.workload}: "
            f"{len(self.finished_requests)}/{self.submitted_requests} requests finished "
            f"({len(self.rejected)} rejected{deferred}), {self.total_output_tokens} tokens "
            f"in {self.duration:.1f}s, imbalance {self.load_imbalance:.2f}{scaling}"
        )
