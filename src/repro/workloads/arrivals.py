"""Arrival scheduling: the load generators' arrival queue and open-loop stamping.

:class:`ArrivalQueue` is the heap of scheduled arrivals behind every load
generator (closed-loop clients, open-loop arrivals, multi-turn sessions).

The single-engine experiments either let closed-loop clients pace themselves
or replay plain Poisson arrivals stamped by :func:`assign_poisson_arrivals`.  Fleet-level routing only
becomes interesting under *bursty* traffic — production request streams arrive
in waves (diurnal peaks, retry storms, batch jobs), and it is exactly during a
burst that a router's placement decisions determine whether one replica melts
while its neighbours idle.

:func:`assign_bursty_arrivals` stamps a workload with arrival times drawn from
an on/off modulated Poisson process: the trace alternates between quiet phases
at ``base_rate`` and burst phases at ``burst_rate`` requests per second.
:func:`assign_diurnal_arrivals` layers a sinusoidal rate envelope over that
bursty base — the day/night cycle every production service sees — so
autoscaling policies face slow tides *and* fast waves at once.  A stamped
workload replays identically through
:meth:`~repro.serving.cluster.ClusterSimulator.run_open_loop` for every router
under comparison, so router effects are never confounded with arrival noise.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.workloads.spec import RequestSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.request import Request


@dataclass(order=True)
class Arrival:
    """One scheduled request arrival (heap-ordered by time, then sequence)."""

    time: float
    sequence: int
    spec: RequestSpec = field(compare=False)


class ArrivalQueue:
    """The arrival heap every load generator keeps.

    Every client model subclasses it.  Subclasses schedule arrivals with
    :meth:`_push` and implement :meth:`start` and
    :attr:`min_follow_up_delay`; the simulators consume arrivals through
    :meth:`pop_arrivals` and :meth:`next_arrival_time`.
    """

    def __init__(self) -> None:
        self._pending: list[Arrival] = []
        self._sequence = 0

    def start(self) -> None:
        """Begin generating arrivals at simulation time zero."""
        raise NotImplementedError

    @property
    def min_follow_up_delay(self) -> float:
        """Least time from a completion to any arrival it spawns (``inf``: none).

        The fleet bounds every event jump with it, so there is no default: a
        generator that spawns arrivals from completions must state its own.
        """
        raise NotImplementedError

    def _push(self, time: float, spec: RequestSpec) -> None:
        heapq.heappush(self._pending, Arrival(time=time, sequence=self._sequence, spec=spec))
        self._sequence += 1

    def on_request_finished(self, time: float, request: Request | None = None) -> None:
        """A request left the fleet (``request`` is ``None`` unless it completed)."""

    def pop_arrivals(self, now: float) -> list[RequestSpec]:
        """Specs whose scheduled arrival time is at or before ``now``."""
        ready: list[RequestSpec] = []
        while self._pending and self._pending[0].time <= now:
            arrival = heapq.heappop(self._pending)
            ready.append(arrival.spec.with_arrival(arrival.time))
        return ready

    def next_arrival_time(self) -> float | None:
        """Time of the earliest scheduled arrival, if any."""
        return self._pending[0].time if self._pending else None


def _stamp_exponential_gaps(workload: Workload, rates: np.ndarray, seed: int, note: str) -> Workload:
    """Stamp arrival times from per-request exponential gaps at ``rates``."""
    gaps = np.random.default_rng(seed).exponential(scale=1.0, size=len(workload)) / rates
    times = np.cumsum(gaps)
    requests = [
        replace(spec, arrival_time=float(time))
        for spec, time in zip(workload.requests, times)
    ]
    return Workload(
        name=workload.name,
        requests=requests,
        description=f"{workload.description} ({note})",
    )


def assign_poisson_arrivals(
    workload: Workload,
    request_rate: float,
    seed: int = 0,
) -> Workload:
    """Stamp a workload with Poisson arrival times at a constant rate.

    Args:
        workload: the requests to stamp, in submission order.
        request_rate: arrival rate in requests per second.
        seed: seed of the generator the gaps are drawn from.
    """
    if not 0 < request_rate < math.inf:
        raise ValueError("request_rate must be positive and finite")
    rates = np.full(len(workload), request_rate)
    return _stamp_exponential_gaps(workload, rates, seed, f"poisson {request_rate:g} req/s")


def _bursty_nominal_rates(
    num_requests: int,
    base_rate: float,
    burst_rate: float,
    burst_length: int,
    cycle_length: int,
) -> np.ndarray:
    """Validated per-request on/off rates shared by the bursty stampers.

    Requests arrive in repeating cycles of ``cycle_length`` requests: the
    first ``burst_length`` of each cycle at ``burst_rate`` (the wave), the
    remainder at ``base_rate`` (the lull).
    """
    if not (0 < base_rate < math.inf and 0 < burst_rate < math.inf):
        raise ValueError("arrival rates must be positive and finite")
    if burst_rate <= base_rate:
        raise ValueError("burst_rate must exceed base_rate")
    if not 0 < burst_length <= cycle_length:
        raise ValueError("burst_length must be in (0, cycle_length]")
    positions = np.arange(num_requests)
    in_burst = (positions % cycle_length) < burst_length
    return np.where(in_burst, burst_rate, base_rate)


def assign_bursty_arrivals(
    workload: Workload,
    base_rate: float,
    burst_rate: float,
    burst_length: int = 32,
    cycle_length: int = 64,
    seed: int = 0,
) -> Workload:
    """Stamp a workload with on/off modulated Poisson arrival times.

    Requests arrive in repeating cycles of ``cycle_length`` requests: the
    first ``burst_length`` of each cycle draw inter-arrival gaps at
    ``burst_rate`` (the wave), the remainder at ``base_rate`` (the lull).

    Args:
        workload: the requests to stamp, in submission order.
        base_rate: arrival rate (requests/second) during quiet phases.
        burst_rate: arrival rate during bursts; must exceed ``base_rate``.
        burst_length: number of requests per cycle that arrive at burst rate.
        cycle_length: total requests per quiet+burst cycle.
        seed: seed of the generator the gaps are drawn from.
    """
    rates = _bursty_nominal_rates(
        len(workload), base_rate, burst_rate, burst_length, cycle_length
    )
    note = (
        f"bursty {base_rate:g}->{burst_rate:g} req/s, "
        f"{burst_length}/{cycle_length} cycle"
    )
    return _stamp_exponential_gaps(workload, rates, seed, note)


def assign_diurnal_arrivals(
    workload: Workload,
    base_rate: float,
    burst_rate: float,
    period: float,
    amplitude: float = 0.5,
    burst_length: int = 32,
    cycle_length: int = 64,
    seed: int = 0,
) -> Workload:
    """Stamp arrivals from a bursty process under a sinusoidal daily envelope.

    The per-request rate is the on/off bursty rate (exactly as in
    :func:`assign_bursty_arrivals`) multiplied by a time-dependent envelope::

        envelope(t) = 1 + amplitude * sin(2 * pi * t / period)

    so traffic tides between ``(1 - amplitude)`` and ``(1 + amplitude)``
    times the nominal rates over each ``period`` (starting at the mean,
    rising first).  Because the envelope depends on *time*, arrival times are
    accumulated sequentially — each gap is an exponential draw scaled by the
    instantaneous rate — which is the standard stepwise-rate construction of
    a nonhomogeneous Poisson process.  The random stream is the same
    per-request standard-exponential draw the other stampers use, so the
    same ``seed`` draws the same gaps.

    Args:
        workload: the requests to stamp, in submission order.
        base_rate: nominal arrival rate (requests/second) during quiet phases.
        burst_rate: nominal rate during bursts; must exceed ``base_rate``.
        period: seconds per full diurnal cycle.
        amplitude: relative swing of the envelope, in ``[0, 1)``.
        burst_length: number of requests per cycle that arrive at burst rate.
        cycle_length: total requests per quiet+burst cycle.
        seed: seed of the generator the gaps are drawn from.
    """
    if not 0 < period < math.inf:
        raise ValueError("period must be positive and finite")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    nominal_rates = _bursty_nominal_rates(
        len(workload), base_rate, burst_rate, burst_length, cycle_length
    )
    standard_gaps = np.random.default_rng(seed).exponential(scale=1.0, size=len(workload))
    times = np.empty(len(workload))
    now = 0.0
    angular = 2.0 * np.pi / period
    for index, (nominal, gap) in enumerate(zip(nominal_rates, standard_gaps)):
        envelope = 1.0 + amplitude * np.sin(angular * now)
        now += float(gap / (nominal * envelope))
        times[index] = now
    requests = [
        replace(spec, arrival_time=float(time))
        for spec, time in zip(workload.requests, times)
    ]
    note = (
        f"diurnal x{amplitude:g} over {period:g}s, bursty "
        f"{base_rate:g}->{burst_rate:g} req/s, {burst_length}/{cycle_length} cycle"
    )
    return Workload(
        name=workload.name,
        requests=requests,
        description=f"{workload.description} ({note})",
    )
