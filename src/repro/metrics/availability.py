"""Availability metrics: what a fleet delivered *while things were failing*.

Companion of :mod:`repro.serving.faults`: once a run carries a fault plan,
raw goodput alone cannot distinguish "the retry machinery saved the burst"
from "half the work silently vanished".  :func:`summarize_availability`
condenses a :class:`~repro.serving.results.ClusterResult` into the numbers
the fig14 failure-recovery benchmark (and any chaos experiment) compares:

* **goodput under failure** — the ordinary SLA goodput of the run, which a
  fault plan drags down through lost work, retry latency, and degraded
  replicas;
* **delivery rate** — finished requests over all requests the generator
  produced (routed + rejected), the request-level availability number;
* **lost work** — requests aborted by crashes and the partial output tokens
  thrown away with them;
* **recovery effort** — fault-driven retries;
* **time to recovery** — per crash with a replacement launch, how long the
  fleet ran short: from the crash instant until the replacement replica
  became routable (``ready_at`` from the provisioned lifetimes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serving.results import ClusterResult
    from repro.serving.sla import SLASpec


@dataclass(frozen=True)
class AvailabilitySummary:
    """Failure/recovery digest of one cluster run (all zeros when fault-free)."""

    #: SLA goodput of the run (output tokens/s from compliant requests).
    goodput: float
    #: finished requests / submitted requests (1.0 when nothing was lost).
    delivery_rate: float
    #: requests aborted by crashes.
    failed_requests: int
    #: output tokens discarded with aborted work.
    lost_tokens: int
    #: fault-driven re-dispatches through the retry policy.
    retries: int
    #: replica crashes.
    crashes: int
    #: straggler windows entered.
    stragglers: int
    #: mean seconds from a crash to its replacement becoming routable;
    #: 0.0 when no crash had a replacement.
    mean_time_to_recovery: float


def summarize_availability(result: "ClusterResult", sla: "SLASpec") -> AvailabilitySummary:
    """Condense a cluster run's failure/recovery behaviour into one record.

    Works on any :class:`~repro.serving.results.ClusterResult`; without a
    fault plan every failure counter is zero and the summary reduces to the
    run's goodput and delivery rate.
    """
    crashes = stragglers = 0
    recovery_times: list[float] = []
    ready_by_replica = {life.replica_id: life.ready_at for life in result.lifetimes}
    for event in result.fault_events:
        if event.kind == "crash":
            crashes += 1
            replacement = event.detail.get("replacement")
            if replacement is not None and replacement in ready_by_replica:
                recovery_times.append(max(0.0, ready_by_replica[replacement] - event.time))
        elif event.kind == "straggler-start":
            stragglers += 1
    # submitted_requests already conserves routed + rejected: crashed work is
    # either re-routed (fresh Request) or rejected with a typed reason, so the
    # failed list must not be added on top — it would double count retries.
    submitted = result.submitted_requests
    finished = len(result.finished_requests)
    return AvailabilitySummary(
        goodput=result.goodput(sla),
        delivery_rate=finished / submitted if submitted else 1.0,
        failed_requests=len(result.failed),
        lost_tokens=result.lost_tokens,
        retries=result.retries,
        crashes=crashes,
        stragglers=stragglers,
        mean_time_to_recovery=(
            sum(recovery_times) / len(recovery_times) if recovery_times else 0.0
        ),
    )
