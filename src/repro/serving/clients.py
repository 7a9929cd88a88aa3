"""Client load generators: closed-loop client pools and open-loop arrivals.

The paper's goodput experiments (Figure 7/9) "simulate concurrent requests
from different numbers of clients": a *closed-loop* model where each client
keeps exactly one request in flight and submits the next one as soon as the
previous finishes.  The window-similarity and trace-replay experiments use an
*open-loop* model where requests arrive on their own schedule regardless of
completions (Poisson arrivals at a target rate, or recorded arrival times).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

from repro.workloads.arrivals import ArrivalQueue, assign_poisson_arrivals
from repro.workloads.spec import RequestSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.request import Request


def check_client_pool_args(num_clients: int, think_time: float) -> None:
    """Raise ``ValueError`` unless a closed-loop pool of these settings could run."""
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if not 0 <= think_time < math.inf:
        raise ValueError("think_time must be finite and non-negative")


class ClosedLoopClientPool(ArrivalQueue):
    """``num_clients`` clients, each keeping one request in flight.

    Clients pull the next spec from the shared workload when their previous
    request completes (after an optional think time).  This is the standard
    load-testing model: raising ``num_clients`` raises concurrency until the
    server saturates.
    """

    def __init__(self, workload: Workload, num_clients: int, think_time: float = 0.0) -> None:
        check_client_pool_args(num_clients, think_time)
        super().__init__()
        self._specs: Iterator[RequestSpec] = iter(workload.requests)
        self._num_clients = num_clients
        self._think_time = think_time

    def _schedule(self, time: float) -> None:
        spec = next(self._specs, None)
        if spec is not None:
            self._push(time, spec)

    def start(self, time: float = 0.0) -> None:
        """Schedule the initial request of every client."""
        for _ in range(self._num_clients):
            self._schedule(time)

    def on_request_finished(self, time: float, request: Request | None = None) -> None:
        """Free one client (completed or turned away); it resubmits one think time later."""
        self._schedule(time + self._think_time)

    @property
    def min_follow_up_delay(self) -> float:
        """A completion schedules its client's next request one think time later."""
        return self._think_time


class OpenLoopArrivals(ArrivalQueue):
    """Open-loop arrival process over a workload.

    Either replays recorded ``arrival_time`` values from the specs, or draws
    exponential inter-arrival gaps for a Poisson process at ``request_rate``
    requests per second.
    """

    def __init__(
        self,
        workload: Workload,
        request_rate: float | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if request_rate is not None:
            # Single source of truth for Poisson stamping; replaying the
            # stamped workload gives the identical trace.
            workload = assign_poisson_arrivals(workload, request_rate, seed=seed)
        for spec in workload.requests:
            if spec.arrival_time is None:
                raise ValueError("workload specs lack arrival times; pass request_rate instead")
            self._push(spec.arrival_time, spec)

    def start(self, time: float = 0.0) -> None:
        """Open-loop arrivals are pre-scheduled; nothing to do."""

    @property
    def min_follow_up_delay(self) -> float:
        """Completions never spawn arrivals, so no finish bounds the next one."""
        return math.inf
