"""Tenant populations: *who* is asking, with a heavy tail of request share.

The north-star deployment serves millions of users through a handful of
applications, and production traffic is never uniform across them: a small
number of tenants (scripted integrations, runaway agents, scraping jobs)
submit a disproportionate share of all requests.  Fairness work only becomes
interesting under exactly that skew — a fair scheduler must keep the heavy
tail from starving everyone else, and a throttle must cut it off at the door.

:func:`generate_tenant_population` builds a deterministic population whose
request shares follow a Zipf-style power law, optionally with a few explicit
*abusive* users that together carry a configurable fraction of all traffic.
:func:`assign_tenants` then stamps an existing workload with user/application
identities drawn i.i.d. from those shares by a generator built from a
``seed``, like :func:`repro.workloads.spec.assign_sla_classes`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.workloads.spec import Workload


@dataclass(frozen=True)
class TenantProfile:
    """One user of a tenant population, bound to an application."""

    user_id: str
    app_id: str
    #: fraction of all requests this user submits (population shares sum to 1).
    share: float

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ValueError("user_id must be non-empty")
        if not self.app_id:
            raise ValueError("app_id must be non-empty")
        if self.share < 0:
            raise ValueError("share must be non-negative")


@dataclass(frozen=True)
class TenantPopulation:
    """A fixed set of users (each bound to an app) with request shares.

    Shares sum to 1 and define the probability that any given request of a
    stamped workload belongs to each user (see :func:`assign_tenants`).
    """

    tenants: tuple[TenantProfile, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a tenant population needs at least one tenant")
        seen: set[str] = set()
        for tenant in self.tenants:
            if tenant.user_id in seen:
                raise ValueError(f"duplicate user id {tenant.user_id!r}")
            seen.add(tenant.user_id)
        total = sum(t.share for t in self.tenants)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"tenant shares must sum to 1 (got {total})")

    @property
    def num_users(self) -> int:
        """Number of distinct users."""
        return len(self.tenants)

    @property
    def shares(self) -> np.ndarray:
        """Request share per user, in population order (sums to 1)."""
        return np.array([t.share for t in self.tenants], dtype=float)

    def describe(self) -> str:
        """One-line population summary for logs and tables."""
        return (
            self.description
            or f"{self.num_users} users across {len({t.app_id for t in self.tenants})} apps"
        )


#: Power-law exponent of a population's non-abusive tail.
ZIPF_ALPHA = 1.1


def generate_tenant_population(
    num_users: int,
    num_apps: int = 1,
    abusive_users: int = 0,
    abusive_share: float = 0.0,
) -> TenantPopulation:
    """Build a heavy-tail tenant population deterministically.

    The first ``abusive_users`` users split ``abusive_share`` of all traffic
    evenly among themselves; the remaining users split the rest following a
    Zipf power law (the ``k``-th of them carries weight ``k**-ZIPF_ALPHA``).
    With ``abusive_users=0`` the whole population is the plain Zipf tail.
    Users are named ``user-0000``... and assigned to apps ``app-0``... round
    robin, so every app serves both heavy and light users.

    Args:
        num_users: total population size.
        num_apps: number of applications users are spread over.
        abusive_users: how many users form the explicit abusive head.
        abusive_share: the fraction of all requests the abusive head submits
            together; must be in ``[0, 1)`` and 0 iff ``abusive_users`` is 0.
    """
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    if not 0 < num_apps <= num_users:
        raise ValueError("num_apps must be in [1, num_users]")
    if not 0 <= abusive_users < num_users:
        raise ValueError("abusive_users must be in [0, num_users)")
    if not 0.0 <= abusive_share < 1.0:
        raise ValueError("abusive_share must be in [0, 1)")
    if (abusive_users == 0) != (abusive_share == 0.0):
        raise ValueError("abusive_users and abusive_share must be set together")
    num_tail = num_users - abusive_users
    tail_weights = np.arange(1, num_tail + 1, dtype=float) ** -ZIPF_ALPHA
    tail_shares = tail_weights / tail_weights.sum() * (1.0 - abusive_share)
    shares = np.concatenate(
        (np.full(abusive_users, abusive_share / max(abusive_users, 1)), tail_shares)
    )
    width = max(4, len(str(num_users - 1)))
    tenants = tuple(
        TenantProfile(
            user_id=f"user-{index:0{width}d}",
            app_id=f"app-{index % num_apps}",
            share=float(share),
        )
        for index, share in enumerate(shares)
    )
    head = (
        f"{abusive_users} abusive users carrying {abusive_share:.0%}, "
        if abusive_users
        else ""
    )
    return TenantPopulation(
        tenants=tenants,
        description=(
            f"{num_users} users / {num_apps} apps ({head}zipf alpha={ZIPF_ALPHA:g})"
        ),
    )


def assign_tenants(
    workload: Workload,
    population: TenantPopulation,
    seed: int = 0,
) -> Workload:
    """Stamp each request with a user (and its app) drawn from the population.

    Draws are i.i.d. per request from the population's shares, so bursts mix
    heavy and light tenants — which is exactly what makes fair admission
    interesting.  Identities are stamped on top of whatever SLA classes or
    arrival times the workload already carries.

    Args:
        workload: the requests to stamp, in submission order.
        population: who submits, with what probability.
        seed: seed of the generator the users are drawn from.
    """
    drawn = np.random.default_rng(seed).choice(population.num_users, size=len(workload), p=population.shares)
    requests = [
        replace(
            spec,
            user_id=population.tenants[index].user_id,
            app_id=population.tenants[index].app_id,
        )
        for spec, index in zip(workload.requests, drawn)
    ]
    return Workload(
        name=workload.name,
        requests=requests,
        description=f"{workload.description} (tenants: {population.describe()})",
    )
