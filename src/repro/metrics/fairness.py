"""Per-tenant service accounting and fairness metrics.

Goodput says how many SLA-compliant tokens a system served; it says nothing
about *who* received them.  Under a heavy-tail tenant population (see
:mod:`repro.workloads.tenants`) an FCFS admission queue lets a few abusive
users monopolise the batch while everyone else starves — total goodput can
look healthy while most users get nothing.  This module adds the missing
axis:

* **Jain's fairness index** over per-tenant service — ``(sum x)^2 / (n * sum
  x^2)``, which is 1 when every tenant receives equal service and approaches
  ``1/n`` when one tenant receives everything;
* **max/min service ratio** — the crudest possible skew indicator;
* **per-tenant service summaries** — submitted/finished/rejected counts,
  served tokens, SLA-compliant tokens, and per-tenant goodput.

Requests are grouped by :attr:`~repro.workloads.spec.RequestSpec.user_id` or
:attr:`~repro.workloads.spec.RequestSpec.app_id`; requests without the
relevant identity are excluded (tenant-less traffic has no fairness story).
Fleet-level surfacing lives in :func:`repro.metrics.fleet.summarize_fleet`
and the ``fairness_summary`` accessors on
:class:`~repro.serving.results.RunResult` /
:class:`~repro.serving.results.ClusterResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving imports metrics)
    from repro.serving.sla import SLASpec


def jains_index(values: Sequence[float]) -> float:
    """Jain's fairness index of a non-negative allocation vector.

    ``(sum x)^2 / (n * sum x^2)``: 1.0 for a perfectly equal allocation,
    ``1/n`` when a single member receives everything.  Degenerate inputs are
    perfectly fair by definition rather than numerical accident: an empty
    vector, a single member, and an all-zero allocation (nobody was served,
    nobody was favoured) all return exactly 1.0.

    Raises:
        ValueError: if any value is negative.
    """
    if any(v < 0 for v in values):
        raise ValueError("allocation values must be non-negative")
    n = len(values)
    if n <= 1:
        return 1.0
    total = float(sum(values))
    squares = float(sum(v * v for v in values))
    if squares <= 0.0:
        return 1.0
    return total * total / (n * squares)


def max_min_service_ratio(values: Sequence[float]) -> float:
    """Ratio of the best-served to the worst-served tenant.

    1.0 for equal (or degenerate: empty, single-member, or all-zero)
    allocations; ``inf`` when some tenant was served and another received
    nothing — the starvation signature this metric exists to expose.

    Raises:
        ValueError: if any value is negative.
    """
    if any(v < 0 for v in values):
        raise ValueError("allocation values must be non-negative")
    if len(values) <= 1:
        return 1.0
    highest = max(values)
    lowest = min(values)
    if highest <= 0.0:
        return 1.0
    if lowest <= 0.0:
        return math.inf
    return float(highest) / float(lowest)


@dataclass(frozen=True)
class TenantService:
    """Service one tenant received over a run."""

    tenant_id: str
    submitted_requests: int
    finished_requests: int
    rejected_requests: int
    #: output tokens of finished requests.
    served_tokens: int
    #: output tokens of SLA-compliant finished requests (goodput credit).
    compliant_tokens: int
    #: compliant tokens per second over the run duration.
    goodput: float


@dataclass(frozen=True)
class FairnessSummary:
    """Fairness slice of one run, grouped per user or per application."""

    #: which identity requests were grouped by: ``"user"`` or ``"app"``.
    group_by: str
    duration: float
    #: per-tenant service, keyed by tenant id (sorted iteration).
    per_tenant: Mapping[str, TenantService] = dataclass_field(default_factory=dict)

    @property
    def num_tenants(self) -> int:
        """Distinct tenants that submitted at least one request."""
        return len(self.per_tenant)

    @property
    def jain_served_tokens(self) -> float:
        """Jain's index over per-tenant served (finished) output tokens."""
        return jains_index([t.served_tokens for t in self.per_tenant.values()])

    @property
    def jain_goodput(self) -> float:
        """Jain's index over per-tenant SLA-compliant tokens.

        The headline fairness number: under a drained run every scheduler
        eventually serves all tokens, but only a fair one spreads the
        *SLA-compliant* tokens across tenants instead of concentrating
        compliance on the heavy hitters at the queue head.
        """
        return jains_index([t.compliant_tokens for t in self.per_tenant.values()])

    @property
    def service_ratio(self) -> float:
        """Max/min ratio of per-tenant served tokens (``inf`` = starvation)."""
        return max_min_service_ratio([t.served_tokens for t in self.per_tenant.values()])

    def as_row(self) -> dict[str, object]:
        """Dictionary row for table rendering."""
        ratio = self.service_ratio
        return {
            "group_by": self.group_by,
            "tenants": self.num_tenants,
            "jain_goodput": round(self.jain_goodput, 3),
            "jain_served": round(self.jain_served_tokens, 3),
            "service_ratio": "inf" if math.isinf(ratio) else round(ratio, 2),
        }


def _tenant_key(request: Request, group_by: str) -> str | None:
    if group_by == "user":
        return request.spec.user_id
    if group_by == "app":
        return request.spec.app_id
    raise ValueError(f"group_by must be 'user' or 'app', got {group_by!r}")


def summarize_tenant_fairness(
    requests: Sequence[Request],
    duration: float,
    sla: "SLASpec",
    rejected: Sequence[Request] = (),
    group_by: str = "user",
) -> FairnessSummary:
    """Group requests per tenant and summarise the service each received.

    Args:
        requests: every request the system accepted (finished or not).
        duration: measurement window (seconds) for per-tenant goodput.
        sla: decides which finished requests earn goodput credit (per-class
            deadlines apply when the spec carries them).
        rejected: requests turned away before execution (throttled or
            lost to a fault); they count as submitted and rejected for their tenant.
        group_by: ``"user"`` or ``"app"`` — which identity to group by.
            Requests without that identity are excluded entirely.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if group_by not in ("user", "app"):
        raise ValueError(f"group_by must be 'user' or 'app', got {group_by!r}")
    submitted: dict[str, int] = {}
    finished: dict[str, int] = {}
    turned_away: dict[str, int] = {}
    served: dict[str, int] = {}
    compliant: dict[str, int] = {}
    for request in requests:
        tenant = _tenant_key(request, group_by)
        if tenant is None:
            continue
        submitted[tenant] = submitted.get(tenant, 0) + 1
        if request.is_finished:
            finished[tenant] = finished.get(tenant, 0) + 1
            served[tenant] = served.get(tenant, 0) + request.generated_tokens
            if sla.request_compliant(request):
                compliant[tenant] = compliant.get(tenant, 0) + request.generated_tokens
    for request in rejected:
        tenant = _tenant_key(request, group_by)
        if tenant is None:
            continue
        submitted[tenant] = submitted.get(tenant, 0) + 1
        turned_away[tenant] = turned_away.get(tenant, 0) + 1
    per_tenant = {
        tenant: TenantService(
            tenant_id=tenant,
            submitted_requests=submitted[tenant],
            finished_requests=finished.get(tenant, 0),
            rejected_requests=turned_away.get(tenant, 0),
            served_tokens=served.get(tenant, 0),
            compliant_tokens=compliant.get(tenant, 0),
            goodput=compliant.get(tenant, 0) / duration if duration > 0 else 0.0,
        )
        for tenant in sorted(submitted)
    }
    return FairnessSummary(group_by=group_by, duration=duration, per_tenant=per_tenant)
