"""Client load generators: closed-loop client pools and open-loop arrivals.

The paper's goodput experiments (Figure 7/9) "simulate concurrent requests
from different numbers of clients": a *closed-loop* model where each client
keeps exactly one request in flight and submits the next one as soon as the
previous finishes.  The window-similarity and trace-replay experiments use an
*open-loop* model where requests arrive at their stamped arrival times
regardless of completions (stamp Poisson arrivals with
:func:`~repro.workloads.arrivals.assign_poisson_arrivals`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

from repro.workloads.arrivals import ArrivalQueue
from repro.workloads.spec import RequestSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.request import Request


def check_client_pool_args(num_clients: int) -> None:
    """Raise ``ValueError`` unless a closed-loop pool of this size could run."""
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")


class ClosedLoopClientPool(ArrivalQueue):
    """``num_clients`` clients, each keeping one request in flight.

    Clients pull the next spec from the shared workload as soon as their
    previous request completes.  This is the standard
    load-testing model: raising ``num_clients`` raises concurrency until the
    server saturates.
    """

    def __init__(self, workload: Workload, num_clients: int) -> None:
        check_client_pool_args(num_clients)
        super().__init__()
        self._specs: Iterator[RequestSpec] = iter(workload.requests)
        self._num_clients = num_clients

    def _schedule(self, time: float) -> None:
        spec = next(self._specs, None)
        if spec is not None:
            self._push(time, spec)

    def start(self) -> None:
        """Schedule the initial request of every client at time zero."""
        for _ in range(self._num_clients):
            self._schedule(0.0)

    def on_request_finished(self, time: float, request: Request | None = None) -> None:
        """Free one client (completed or turned away); it resubmits at once."""
        self._schedule(time)

    @property
    def min_follow_up_delay(self) -> float:
        """A completion schedules its client's next request at the same instant."""
        return 0.0


class OpenLoopArrivals(ArrivalQueue):
    """Open-loop arrival process: replays the specs' stamped ``arrival_time``."""

    def __init__(self, workload: Workload) -> None:
        super().__init__()
        for spec in workload.requests:
            if spec.arrival_time is None:
                raise ValueError("workload specs lack arrival times; stamp them first")
            self._push(spec.arrival_time, spec)

    def start(self) -> None:
        """Open-loop arrivals are pre-scheduled; nothing to do."""

    @property
    def min_follow_up_delay(self) -> float:
        """Completions never spawn arrivals, so no finish bounds the next one."""
        return math.inf
