"""Fair admission across tenants: Virtual Token Counter scheduling.

The paper's schedulers decide *when* to admit but keep FCFS order, so a
heavy-tail tenant (see :mod:`repro.workloads.tenants`) that floods the queue
monopolises every admission slot.  The Virtual Token Counter (VTC) discipline
from the LLM fair-serving literature fixes the *who first* half:

* every tenant (a request's ``user_id``; tenant-less requests share one
  anonymous tenant) carries a **virtual counter** of the service it has
  received;
* admission considers waiting requests in order of **lowest tenant counter**
  (FIFO among a tenant's own requests), under the same current-occupancy
  watermark test as the :class:`~repro.schedulers.aggressive.AggressiveScheduler`;
  one FIFO per tenant, kept by the engine's queue hooks (Sheng et al.'s
  per-client queues), makes a consult O(tenants + admitted), not O(queue);
* on completion a request **charges** its tenant the actual service it
  consumed — its prompt tokens plus its generated tokens;
* a tenant that arrives (or returns) after sitting idle is **lifted** to the
  minimum counter among currently active tenants, so accumulated "credit"
  from a quiet period cannot be spent monopolising the batch later.

The weighted variant (:class:`WeightedServiceCounterScheduler`) divides each
charge by a per-tenant weight, so a weight-2 tenant accrues debt half as fast
and receives roughly twice the service share — the knob for paid tiers.

With no tenants configured every request maps to the shared anonymous
tenant, ordering degenerates to FIFO, and the policy is behaviourally
identical to the aggressive watermark baseline — existing untenanted
experiments are not perturbed.

Both schedulers run the aggressive baseline's watermark test and change only
the order candidates are considered in.  They are deterministic (no RNG), so
the saturated-phase event jump is the watermark family's proof
(:meth:`~repro.schedulers.aggressive.AggressiveScheduler.saturated_no_admit_horizon`):
during a uniform-decode window the counters are frozen (no arrivals, no
completions), the queue is frozen, and occupancy only grows — one test of the
lowest-counter candidate proves a whole no-admit window.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Iterator, Mapping, Sequence

from repro.engine.request import Request
from repro.schedulers.aggressive import AggressiveScheduler

#: Counter key shared by every request without a ``user_id``; with no tenants
#: configured all traffic lands here and VTC degenerates to FIFO admission.
ANONYMOUS_TENANT = "anonymous"


class VirtualTokenCounterScheduler(AggressiveScheduler):
    """Admit the lowest-virtual-counter tenant first, under a watermark.

    Args:
        watermark: fraction of the KV capacity the scheduler is willing to
            fill with *current* tokens at admission time (the same knob as
            the aggressive baseline, so FCFS-vs-VTC comparisons isolate the
            admission *order*).
    """

    name = "vtc"

    def __init__(self, watermark: float = 0.95) -> None:
        super().__init__(watermark)
        self.on_run_start()

    # ------------------------------------------------------------- accounting
    def _tenant(self, request: Request) -> str:
        return request.spec.user_id or ANONYMOUS_TENANT

    def _weight(self, tenant: str) -> float:
        """Service weight of one tenant (charges divide by it)."""
        return 1.0

    def _service_tokens(self, request: Request) -> int:
        """Actual service a request consumed: its prompt plus generated tokens."""
        return request.prompt_tokens + request.generated_tokens

    def on_run_start(self) -> None:
        """Forget every tenant's counter, activity and queue (a fresh run)."""
        #: accumulated (weighted) service per tenant.
        self._counters: dict[str, float] = {}
        #: requests inside the engine (waiting or running) per tenant; a
        #: tenant with none is *inactive* and gets lifted on its next arrival.
        self._active: dict[str, int] = {}
        #: each tenant's waiting ``(seq, request)``s.  Submits number up from
        #: 0, evictions down from -1, mirroring the engine's queue (``submit``
        #: appends, ``_evict`` re-queues at the front), so seq is queue order.
        self._fifos: dict[str, deque[tuple[int, Request]]] = {}
        self._back_seq = count()
        self._front_seq = count(-1, -1)

    def on_request_submitted(self, request: Request) -> None:
        """Lift a lagged tenant to the active minimum, then mark it active.

        The lift happens *on arrival* (not at the next consult), so it is a
        well-defined event in both the reference loop and the event-jump
        fast path — arrivals always end fusion windows.
        """
        tenant = self._tenant(request)
        if not self._active.get(tenant):
            floor = min(
                (self._counters.get(t, 0.0) for t, n in self._active.items() if n > 0),
                default=None,
            )
            if floor is not None and floor > self._counters.get(tenant, 0.0):
                self._counters[tenant] = floor
        self._active[tenant] = self._active.get(tenant, 0) + 1
        self._fifos.setdefault(tenant, deque()).append((next(self._back_seq), request))

    def on_request_evicted(self, request: Request, time: float) -> None:
        """Re-queue the request at the front of its tenant's FIFO."""
        self._fifos.setdefault(self._tenant(request), deque()).appendleft((next(self._front_seq), request))

    def on_request_dequeued(self, request: Request) -> None:
        """Pop the request off its tenant's FIFO (the engine only dequeues heads)."""
        tenant = self._tenant(request)
        fifo = self._fifos.get(tenant)
        if not fifo or fifo[0][1] is not request:
            raise RuntimeError(
                f"{request.request_id} left the queue but is not the head of tenant {tenant!r}'s FIFO"
            )
        fifo.popleft()
        if not fifo:
            del self._fifos[tenant]

    def on_request_finished(self, request: Request, time: float) -> None:
        """Charge the tenant the service actually consumed; retire if idle."""
        tenant = self._tenant(request)
        self._counters[tenant] = (
            self._counters.get(tenant, 0.0)
            + self._service_tokens(request) / self._weight(tenant)
        )
        remaining = self._active.get(tenant, 0) - 1
        if remaining > 0:
            self._active[tenant] = remaining
        else:
            self._active.pop(tenant, None)

    # -------------------------------------------------------------- admission
    def _candidates(self, waiting: Sequence[Request]) -> Iterator[Request]:
        """Waiting requests, lowest committed counter first, FIFO within a tenant.

        Each admitted pick *provisionally* charges its tenant (local to this
        consult — real counters only move on completion), so one zero-debt
        tenant with many queued requests cannot fill the whole batch in a
        single consult; admission rotates across tenants.  The charge is
        applied after ``yield``: the admission loop asks for the next
        candidate only once it has admitted the previous one.  ``waiting`` is
        not read (it is only :meth:`schedule`'s empty-queue guard): the
        per-tenant FIFOs the queue hooks keep are the source of truth.  The
        heap holds only each tenant's head, keyed ``(counter, seq)``, which
        orders like ``(counter, queue index)``; after a pick the tenant's
        next queued request enters at the charged counter.
        """
        counters, fifos = self._counters, self._fifos
        heap = [(counters.get(tenant, 0.0), *fifo[0], tenant, 1) for tenant, fifo in fifos.items()]
        heapq.heapify(heap)
        while heap:
            counter, _, candidate, tenant, following = heapq.heappop(heap)
            yield candidate
            fifo = fifos[tenant]
            if following < len(fifo):
                charged = counter + self._service_tokens(candidate) / self._weight(tenant)
                heapq.heappush(heap, (charged, *fifo[following], tenant, following + 1))

    def trace_signals(self) -> dict:
        """Virtual counters of the currently active tenants (rounded)."""
        return {
            "active_tenants": len(self._active),
            "counters": {
                tenant: round(self._counters.get(tenant, 0.0), 3)
                for tenant in sorted(self._active)
            },
        }

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return f"vtc (watermark={self.watermark:.0%})"


class WeightedServiceCounterScheduler(VirtualTokenCounterScheduler):
    """VTC with per-tenant service weights (paid tiers, internal priority).

    A tenant's completion charge is divided by its weight, so a weight-``w``
    tenant accrues virtual debt ``w`` times slower and receives roughly a
    ``w``-proportional share of contended admission slots.  Tenants not in
    the mapping have weight 1.

    Args:
        weights: per-tenant (``user_id``) service weight; must be positive.
        watermark: as for :class:`VirtualTokenCounterScheduler`.
    """

    name = "weighted-vtc"

    def __init__(self, weights: Mapping[str, float] | None = None, watermark: float = 0.95) -> None:
        super().__init__(watermark=watermark)
        self.weights = dict(weights or {})
        for tenant, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight for tenant {tenant!r} must be positive")

    def _weight(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return (
            f"weighted-vtc (watermark={self.watermark:.0%}, "
            f"{len(self.weights)} weighted tenants, default=1)"
        )
