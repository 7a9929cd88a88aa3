"""Scheduler interface shared by the Past-Future scheduler and the baselines.

Every scheduler answers one question per continuous-batching iteration: *which
waiting requests should join the running batch right now?*  The engine hands
it a :class:`SchedulingContext` of its batch and queue and expects back an
ordered list of requests to admit.  :meth:`Scheduler.schedule` is the one
admission loop: a policy supplies only what it charges a candidate
(:meth:`Scheduler._fit_test`) and, optionally, the order candidates are
considered in (:meth:`Scheduler._candidates`).  The paper's schedulers are FCFS over
admission order (they admit a prefix of the queue, deciding only *when*, not
*who first*); fair schedulers (:mod:`repro.schedulers.fair`) additionally
reorder admission across tenants, which the engine supports — admitted
requests may be any subset of the waiting queue, in any order.

Schedulers also receive lifecycle callbacks so that history-based policies
(the Past-Future scheduler) can observe finished output lengths and
service-accounting policies can observe arrivals, dequeues and completions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.engine.request import Request


@dataclass
class SchedulingContext:
    """The engine's own batch and queue (not copies: a consult only reads them)."""

    #: requests currently resident in the KV cache, admission order.
    running: Sequence[Request]
    #: ``sum(r.current_context_tokens for r in running)``, read off the
    #: engine's pool ledger rather than summed.
    running_tokens: int
    #: requests waiting for admission, in queue order (evicted requests are
    #: re-queued at the front by the engine).
    waiting: Sequence[Request]
    #: total KV-cache token slots of the platform.
    token_capacity: int


class Scheduler:
    """Admission-control policy for continuous batching."""

    #: human-readable policy name used in tables and figures.
    name: str = "abstract"

    def schedule(self, context: SchedulingContext) -> list[Request]:
        """Return the waiting requests to admit this iteration, in order.

        The one admission loop (Algorithm 1's shape): walk
        :meth:`_candidates` and stop at the first candidate the policy's
        :meth:`_fit_test` rejects.  An empty system still admits that first
        candidate when it fits the pool at all (the progress guarantee: a
        request larger than the policy's budget must not starve forever).
        The returned requests come from ``context.waiting``, each at most
        once; the engine admits them in the returned order.  The context is
        not mutated.
        """
        if not context.waiting:
            return []
        fits = self._fit_test(context)
        admitted: list[Request] = []
        for candidate in self._candidates(context.waiting):
            if fits(candidate):
                admitted.append(candidate)
                continue
            if not admitted and not context.running:
                if candidate.current_context_tokens + 1 <= context.token_capacity:
                    admitted.append(candidate)
            break
        return admitted

    def _candidates(self, waiting: Sequence[Request]) -> Iterable[Request]:
        """Waiting requests in the order admission considers them (queue order).

        :meth:`schedule` asks for the next candidate only after admitting the
        previous one, so a generator override may account for each admission
        after its ``yield``.
        """
        return waiting

    def _fit_test(self, context: SchedulingContext) -> Callable[[Request], bool]:
        """Build this consult's admission test.

        The returned closure answers whether one candidate fits on top of the
        running batch and every candidate it has already accepted; when it
        answers yes it counts that candidate as admitted.  Policies that
        override :meth:`schedule` need not implement it.
        """
        raise NotImplementedError(f"{type(self).__name__} must implement _fit_test")

    # -------------------------------------------------- saturated-phase jumps
    def saturated_no_admit_horizon(self, context: SchedulingContext, max_steps: int) -> int:
        """How many upcoming iterations provably admit nothing (fast path).

        While the waiting queue is non-empty the engine must consult the
        scheduler every iteration, which blocks the event-jump fast path.
        This hook lets a scheduler *prove* that its next ``max_steps``
        admission decisions would all return the empty list, so the engine
        may fuse those iterations into one macro-step
        (:meth:`repro.engine.engine.InferenceEngine.try_jump_any`).

        ``context`` describes the *first* upcoming iteration.  The engine
        guarantees the proof window is a **uniform decode phase**: batch
        membership is fixed, every resident is decoding and grows by exactly
        one token per iteration, nothing finishes or is evicted, and the
        waiting queue (in particular its head) is unchanged.  Implementations
        must model that drift themselves (e.g. occupancy grows by the batch
        size each iteration); a policy that depends on anything else — state
        this base class does not know about — must return 0, which is always
        safe and simply falls back to the reference loop.  A subclass that
        changes its parent's admission rule must override the inherited proof
        too (returning 0 if it has none).

        Returning ``k > 0`` is a *bit-identity contract*: for each of the
        next ``k`` iterations, :meth:`schedule` — with whatever randomness it
        would have drawn — would admit nothing.  RNG-consuming schedulers
        must additionally advance their stream state for fused iterations in
        :meth:`on_saturated_steps_fused` so a later reference-path
        consultation sees exactly the generator position it would have seen
        had every iteration been stepped individually.

        Must not mutate observable scheduling state (the engine may fuse
        fewer iterations than the returned horizon, or none at all).
        """
        return 0

    def on_saturated_steps_fused(self, steps: int) -> None:
        """Commit ``steps`` fused no-admit iterations (advance RNG bookkeeping).

        Called by the engine exactly once per saturated macro-step, with the
        number of iterations actually fused (``<=`` the horizon previously
        returned).  Stateless schedulers need not override this.
        """

    # ---------------------------------------------------------- observability
    def trace_signals(self) -> dict:
        """Policy-specific attributes attached to ``request.admitted`` events.

        Returns a small JSON-serialisable mapping of the internal signals
        behind the policy's admission decisions (service counters, queue
        weights, ...).  Only consulted when a tracer is attached, so
        overrides may do modest per-call work; stateless policies inherit
        the empty default.
        """
        return {}

    # ------------------------------------------------------------- lifecycle
    def on_request_submitted(self, request: Request) -> None:
        """Called by the engine when a new request enters the waiting queue.

        Fires once per request, at :meth:`InferenceEngine.submit` time — not
        on eviction re-queuing.  Service-accounting policies (the fair
        schedulers) use this to observe tenant arrivals; stateless policies
        need not override it.
        """

    def on_request_finished(self, request: Request, time: float) -> None:
        """Called by the engine when a request completes generation."""

    def on_request_evicted(self, request: Request, time: float) -> None:
        """Called by the engine when a request is evicted from the batch."""

    def on_request_dequeued(self, request: Request) -> None:
        """Called by the engine when a request leaves the queue: admission or crash."""

    def on_run_start(self) -> None:
        """Called once before a simulation run begins (reset mutable state)."""

    # -------------------------------------------------------------- utilities
    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"
