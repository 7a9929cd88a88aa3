"""Continuous-batching inference engine (discrete-event simulation).

The engine executes the serving loop the paper describes in Sections 2.3–2.4:
one *iteration* (decode step) at a time it

1. asks the admission scheduler which waiting requests join the running batch,
2. (chunked-)prefills newly admitted requests,
3. decodes one token for every resident request, evicting requests when the
   KV-cache pool cannot grow, and
4. retires finished requests, feeding their true output lengths back to the
   scheduler so history-based policies can learn the workload.

The wall-clock duration of each iteration comes from the roofline
:class:`~repro.engine.cost_model.CostModel`; the caller (the event loop of
:class:`repro.serving.cluster.ClusterSimulator`) owns the clock and injects
request arrivals between iterations.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import accumulate, count, islice

from repro.core.future_memory import peak_future_memory
from repro.engine.cost_model import CostModel, StepWork, check_engine_settings
from repro.engine.request import Request, RequestState
from repro.hardware.platform import Platform
from repro.memory.block_manager import BlockKVCachePool
from repro.memory.pool_stats import MemoryTimeline
from repro.memory.prefix_cache import PrefixCache, PrefixEntry
from repro.obs import events as obs
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer
from repro.schedulers.base import Scheduler, SchedulingContext

#: Fewest fusable iterations :meth:`InferenceEngine.try_jump_any` fuses:
#: below this the macro-step is not worth its planning cost, and the caller
#: takes one :meth:`~InferenceEngine.step` instead.
_MIN_JUMP_STEPS = 2


@dataclass
class StepResult:
    """Outcome of one continuous-batching iteration."""

    step: int
    start_time: float
    duration: float
    admitted: list[Request] = field(default_factory=list)
    finished: list[Request] = field(default_factory=list)
    evicted: list[Request] = field(default_factory=list)
    work: StepWork = field(default_factory=StepWork)

    @property
    def end_time(self) -> float:
        """Wall-clock time at which the iteration completed."""
        return self.start_time + self.duration

    @property
    def was_idle(self) -> bool:
        """Whether the iteration performed no model work."""
        return self.work.is_idle


@dataclass
class JumpResult:
    """Outcome of one event-jump macro-step (``steps`` fused iterations).

    Produced by :meth:`InferenceEngine.try_jump_any` when the engine can
    prove that no scheduling event occurs for the next ``steps`` iterations
    (with a non-empty waiting queue, the admission scheduler additionally
    proves its next ``steps`` decisions admit nothing); either way the
    macro-step admits nothing, finishes nothing, and evicts nothing — it
    only fast-forwards decode.
    """

    #: number of decode iterations fused into this macro-step.
    steps: int
    #: wall-clock time after the last fused iteration; bit-identical to the
    #: sequentially accumulated end time of the reference loop.
    end_time: float
    #: which jump produced the macro-step: ``"silent"`` (empty waiting
    #: queue) or ``"saturated"`` (non-empty queue, scheduler-proven).
    source: str = "silent"


@dataclass
class EngineStats:
    """Counters accumulated over an engine's lifetime."""

    decoding_steps: int = 0
    idle_steps: int = 0
    total_prefill_tokens: int = 0
    total_decode_tokens: int = 0
    total_evictions: int = 0
    total_admissions: int = 0
    total_finished: int = 0


@dataclass
class JumpStats:
    """Self-profiling counters of the event-jump fast path.

    Answers "what did the fast path actually do" for one engine's lifetime:
    how often each jump was taken, how many iterations the jumps fused, why
    attempts fell back to the reference loop (so a kind's attempts are its
    jumps plus its ``fallback_reasons``), and how often the admission
    scheduler was consulted.  Kept separate from
    :class:`EngineStats` on purpose — these counters describe the *execution
    strategy*, not the simulated system, so they differ between fast-path
    and reference runs and are deliberately excluded from result
    fingerprints (see :func:`repro.analysis.perf.run_snapshot`).
    """

    #: reference iterations executed via :meth:`InferenceEngine.step`.
    loop_steps: int = 0
    #: macro-steps taken with an empty waiting queue.
    silent_jumps: int = 0
    #: macro-steps taken with a non-empty waiting queue.
    saturated_jumps: int = 0
    #: iterations fused across all macro-steps of either kind.
    steps_fused: int = 0
    #: iterations on which the admission scheduler was consulted (non-empty
    #: waiting queue at :meth:`InferenceEngine.step` time).
    scheduler_consults: int = 0
    #: why jump attempts fell back to the reference loop, per reason:
    #: ``silent:`` ``no-window`` / ``step-budget`` / ``horizon-clip`` and
    #: ``saturated:`` ``not-uniform`` / ``step-budget`` /
    #: ``scheduler-horizon`` / ``horizon-clip``.
    fallback_reasons: dict[str, int] = field(default_factory=dict)

    def note_fallback(self, reason: str) -> None:
        """Count one attempt that fell back to the reference loop."""
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    # ------------------------------------------------------------ derived
    @property
    def total_steps(self) -> int:
        """Iterations the engine advanced by any path."""
        return self.loop_steps + self.steps_fused

    @property
    def jumps(self) -> int:
        """Macro-steps taken of either kind."""
        return self.silent_jumps + self.saturated_jumps

    @property
    def fused_fraction(self) -> float:
        """Fraction of all iterations advanced inside macro-steps."""
        total = self.total_steps
        return self.steps_fused / total if total else 0.0

    @property
    def mean_steps_per_jump(self) -> float:
        """Average iterations fused per taken macro-step."""
        return self.steps_fused / self.jumps if self.jumps else 0.0

    def merge(self, other: "JumpStats") -> None:
        """Accumulate another engine's counters into this one (fleet totals)."""
        for counter in fields(self):
            mine, theirs = getattr(self, counter.name), getattr(other, counter.name)
            if isinstance(mine, dict):
                for reason, count in theirs.items():
                    mine[reason] = mine.get(reason, 0) + count
            else:
                setattr(self, counter.name, mine + theirs)

    def summary(self) -> dict:
        """Compact JSON-ready view (the ``jump`` block of ``BENCH_core.json``)."""
        return {
            "loop_steps": self.loop_steps,
            "jumps": self.jumps,
            "steps_fused": self.steps_fused,
            "silent_jumps": self.silent_jumps,
            "saturated_jumps": self.saturated_jumps,
            "scheduler_consults": self.scheduler_consults,
            "fused_fraction": round(self.fused_fraction, 4),
            "mean_steps_per_jump": round(self.mean_steps_per_jump, 2),
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
        }


class InferenceEngine:
    """Continuous-batching executor over a simulated KV-cache pool.

    Args:
        platform: deployment target; supplies the token capacity and feeds the
            default cost model.
        scheduler: admission-control policy.
        cost_model: latency model; built from ``platform`` if omitted.
        chunked_prefill_tokens: if set, at most this many prompt tokens are
            processed per iteration (DeepSpeed-MII "splitfuse" style); ``None``
            prefills each admitted request in a single iteration.
        token_capacity_override: replaces the platform's KV token capacity,
            used by scaled-down experiments and unit tests.
        prefix_cache_tokens: if set, a per-engine
            :class:`~repro.memory.prefix_cache.PrefixCache` retains the KV
            context of finished non-final session turns (up to this many
            tokens) so follow-up turns that land here skip recomputing and
            re-allocating the shared prefix.  Cached tokens are part of the
            pool's used tokens, so a budget at or above the pool capacity
            means the cache is bounded only by pool pressure.
            ``None`` (the default) disables the cache entirely — no
            allocation is retained and no prefix event is ever emitted,
            keeping sessionless runs byte-identical to earlier versions.
        tracer: observability sink for request-lifecycle and macro-step
            events (see :mod:`repro.obs`); defaults to the zero-overhead
            :data:`~repro.obs.tracer.NULL_TRACER`.  Tracing only reads
            state — results are byte-identical with any tracer attached.
    """

    def __init__(
        self,
        platform: Platform,
        scheduler: Scheduler,
        cost_model: CostModel | None = None,
        chunked_prefill_tokens: int | None = None,
        token_capacity_override: int | None = None,
        tracer: Tracer | None = None,
        prefix_cache_tokens: int | None = None,
    ) -> None:
        self.platform = platform
        self.scheduler = scheduler
        self.cost_model = cost_model or CostModel(platform)
        check_engine_settings(
            chunked_prefill_tokens=chunked_prefill_tokens, token_capacity_override=token_capacity_override
        )
        self.chunked_prefill_tokens = chunked_prefill_tokens
        capacity = token_capacity_override if token_capacity_override is not None else platform.token_capacity
        if capacity <= 0:
            raise ValueError("token capacity must be positive")
        self.token_capacity = capacity
        self.pool = BlockKVCachePool(capacity)
        if prefix_cache_tokens is not None and prefix_cache_tokens <= 0:
            raise ValueError("prefix_cache_tokens must be positive when set")
        self.prefix_cache: PrefixCache | None = (
            PrefixCache(self.pool, capacity_tokens=prefix_cache_tokens)
            if prefix_cache_tokens is not None
            else None
        )
        self.waiting: deque[Request] = deque()
        #: Requests resident in the KV cache, in admission order: the eviction
        #: rule breaks ties between requests admitted at the same instant by it.
        self.batch: list[Request] = []
        self.stats = EngineStats()
        self.jump_stats = JumpStats()
        self.memory_timeline = MemoryTimeline(token_capacity=self.pool.token_capacity)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # The enabled flag is immutable per tracer; caching it keeps the
        # per-token and per-step guards to one attribute read.
        self._tracing = self.tracer.enabled
        #: replica index stamped on emitted events (the cluster assigns it;
        #: standalone engines trace as replica 0).
        self.trace_replica = 0
        self._step_counter = 0
        # Iteration end times, one per step and per fused iteration: each
        # decoding resident's tokens are a suffix (Request.open_segment).
        self._ends: list[float] = []
        # Batch (admission) order per resident; a heap of (last end index,
        # completed-prefill tie group, order, request) for coming finishes,
        # whose entries for requests that left the batch are skipped.
        self._order: dict[Request, int] = {}
        self._admissions = count()
        self._due: list[tuple[int, bool, int, Request]] = []
        # Decoding residents and their context sum; the rest is prefilling.
        self._decoding = self._decode_context = 0
        # Targets the pool boundary has not served yet (no token if evicted).
        self._unserved: set[Request] = set()
        # Profile of a *uniform* batch (every resident decoding), rewritten by
        # every step() and advanced in closed form by every jump, so it is
        # always current; ``None`` when the batch is empty, some resident is
        # not decoding, or the batch changed since.
        # Layout: (batch_size, context_sum, future_required, min_remaining).
        self._silent_cache: tuple[int, int, int, int] | None = None
        self.scheduler.on_run_start()

    # ------------------------------------------------------------------ state
    @property
    def num_waiting(self) -> int:
        """Requests currently queued for admission."""
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        """Requests currently resident in the KV cache."""
        return len(self.batch)

    def has_work(self) -> bool:
        """Whether any request is queued or resident."""
        return bool(self.waiting or self.batch)

    def submit(self, request: Request, time: float | None = None) -> None:
        """Add an arriving request to the waiting queue.

        ``time`` is the simulation clock at queue entry, used only for
        tracing (it defaults to the request's arrival time, which is exact
        whenever the caller injects arrivals at their timestamps).

        Raises:
            ValueError: if the request is not queued, or if its prompt plus
                output exceeds the pool's token capacity (it could never
                finish, and would block every request queued behind it).
        """
        if request.state is not RequestState.QUEUED:
            raise ValueError("only queued requests can be submitted")
        needed = request.spec.total_tokens
        if needed > self.token_capacity:
            raise ValueError(
                f"request {request.request_id} needs {needed} KV tokens, "
                f"more than the pool's capacity of {self.token_capacity}"
            )
        self.waiting.append(request)
        self.scheduler.on_request_submitted(request)
        if self._tracing:
            self.tracer.emit(
                TraceEvent(
                    obs.REQUEST_QUEUED,
                    time if time is not None else request.arrival_time,
                    request_id=request.request_id,
                    replica=self.trace_replica,
                    attrs={"queue_depth": len(self.waiting)},
                )
            )

    # ------------------------------------------------------------- fault hooks
    def abort_all(self, time: float) -> list[Request]:
        """Kill every resident and queued request (replica crash semantics).

        Frees the KV pool, aborts each request (their partial token timelines
        stay recorded, so callers can account the work lost with them), and
        clears the batch profile.  Returns the aborted requests, running
        batch first in batch order, then the waiting queue front to back.
        """
        aborted: list[Request] = []
        if self.prefix_cache is not None:
            # A crash takes the cached prefixes with it (no eviction events:
            # the replica is gone, not under memory pressure).
            self.prefix_cache.clear()
        for request in self.batch:
            self.pool.free(request.current_context_tokens)
            request.abort(time)
            aborted.append(request)
        self.batch.clear()
        self._order.clear()
        self._ends.clear()
        self._due.clear()
        self._decoding = self._decode_context = 0
        for request in self.waiting:
            request.abort(time)
            aborted.append(request)
            self.scheduler.on_request_dequeued(request)
        self.waiting.clear()
        self._silent_cache = None
        return aborted

    def drain_waiting(self) -> list[Request]:
        """Remove and return the waiting queue (queue migration off a drain).

        The requests stay ``QUEUED`` — they hold no KV and can be submitted
        to another engine.  The running batch is untouched, so the batch
        profile stays current.  The scheduler is told each request left the
        queue, but cross-request state (e.g. VTC counters and tenant
        activity) stays behind, exactly as a real drain abandons a dying
        scheduler's bookkeeping.
        """
        drained = list(self.waiting)
        self.waiting.clear()
        for request in drained:
            self.scheduler.on_request_dequeued(request)
        return drained

    # ------------------------------------------------------------- admission
    def _scheduling_context(self) -> SchedulingContext:
        # Only built when the scheduler is consulted (non-empty waiting queue).
        # No copies: a consult only reads the batch and queue.  The pool holds
        # the batch's context plus the cached prefixes (the ledger).
        cache = self.prefix_cache
        return SchedulingContext(
            running=self.batch,
            running_tokens=self.pool.used_tokens - (cache.resident_tokens if cache is not None else 0),
            waiting=self.waiting,
            token_capacity=self.pool.token_capacity,
        )

    def _admit(self, time: float) -> list[Request]:
        if not self.waiting:
            return []
        self.jump_stats.scheduler_consults += 1
        decisions = self.scheduler.schedule(self._scheduling_context())
        admitted: list[Request] = []
        cache = self.prefix_cache
        for request in decisions:
            needed = request.current_context_tokens
            entry = cache.lookup(request.spec) if cache is not None else None
            # On a hit the shared prefix is already resident; only the new
            # suffix needs room.  Live admissions outrank cached prefixes, so
            # LRU-evict them first (never the entry about to be claimed).
            cost = needed if entry is None else needed - entry.tokens
            if not self.pool.can_allocate(cost):
                if cache is not None:
                    protect = None if entry is None else entry.session_id
                    self._evict_prefixes(cache.evict_for_allocation(cost, protect), time)
                if not self.pool.can_allocate(cost):
                    break
            # By identity (``Request`` is ``eq=False``): a prefix admission
            # finds its request at the head, a fair one anywhere in the queue.
            try:
                self.waiting.remove(request)
            except ValueError:
                # A request the queue does not hold (or admitted twice) is
                # a policy bug we surface immediately.
                raise RuntimeError(
                    f"scheduler {self.scheduler.name!r} admitted "
                    f"{request.request_id}, which is not in the waiting queue"
                ) from None
            self.scheduler.on_request_dequeued(request)
            self.pool.allocate(cost)
            if entry is not None:
                cache.claim(entry)
                request.admit(time)
                # The reused prefix's KV is already computed; only the new
                # suffix remains as prefill work.
                request.note_prefill(entry.tokens)
                if self._tracing:
                    self.tracer.emit(
                        TraceEvent(
                            obs.PREFIX_HIT,
                            time,
                            request_id=request.request_id,
                            replica=self.trace_replica,
                            attrs={
                                "session_id": entry.session_id,
                                "reused_tokens": entry.tokens,
                                "new_tokens": cost,
                            },
                        )
                    )
            else:
                request.admit(time)
                if cache is not None and request.spec.session_id is not None:
                    cache.note_miss()
                    if self._tracing:
                        self.tracer.emit(
                            TraceEvent(
                                obs.PREFIX_MISS,
                                time,
                                request_id=request.request_id,
                                replica=self.trace_replica,
                                attrs={
                                    "session_id": request.spec.session_id,
                                    "prompt_tokens": needed,
                                },
                            )
                        )
            admitted.append(request)
            self._join(request)
            if request.state is RequestState.DECODING:
                # A prefix hit covering the whole prompt decodes right away.
                self._open(request, len(self._ends))
        self.stats.total_admissions += len(admitted)
        if self._tracing and admitted:
            signals = self.scheduler.trace_signals()
            for request in admitted:
                self.tracer.emit(
                    TraceEvent(
                        obs.REQUEST_ADMITTED,
                        time,
                        request_id=request.request_id,
                        replica=self.trace_replica,
                        attrs={
                            "step": self._step_counter,
                            "used_tokens": self.pool.used_tokens,
                            "batch_size": len(self.batch),
                            **signals,
                        },
                    )
                )
        return admitted

    # ------------------------------------------------------------ membership
    def _join(self, request: Request) -> None:
        self.batch.append(request)
        self._order[request] = next(self._admissions)

    def _open(self, request: Request, lead: int, prefilled: bool = False) -> None:
        """Open a resident's segment at ``lead``; a finish there by a request
        ``prefilled`` this iteration ties after the decode targets."""
        last = request.open_segment(self._ends, lead)
        heapq.heappush(self._due, (last, prefilled and last == lead, self._order[request], request))
        self._decoding += 1
        self._decode_context += request.current_context_tokens

    def _remove(self, request: Request, stop: int | None = None) -> int:
        """Take a resident out, closing its segment at ``stop``; returns its context."""
        self.batch.remove(request)
        del self._order[request]
        self._silent_cache = None
        if request.state is RequestState.DECODING:
            self._decoding -= 1
            # The counter assumed this iteration's token for every segment.
            self._decode_context -= request.current_context_tokens
            request.close_segment(stop)
        return request.current_context_tokens

    # ---------------------------------------------------------------- prefill
    def _plan_prefill(self) -> tuple[int, list[Request]]:
        """Assign prefill work for this iteration.

        Returns the number of prompt tokens processed and the requests whose
        prefill completed (and therefore deliver their first token this step).
        """
        prefilling = [r for r in self.batch if r.state is RequestState.PREFILLING]
        if not prefilling:
            return 0, []
        budget = self.chunked_prefill_tokens
        processed = 0
        completed: list[Request] = []
        for request in prefilling:
            remaining = request.prefill_remaining
            if remaining == 0:
                request.note_prefill(0)
                completed.append(request)
                continue
            if budget is None:
                share = remaining
            else:
                share = min(remaining, budget - processed)
                if share <= 0:
                    break
            request.note_prefill(share)
            processed += share
            if request.prefill_remaining == 0:
                completed.append(request)
        return processed, completed

    # ----------------------------------------------------------------- decode
    def _evict_prefixes(self, entries: list[PrefixEntry], time: float) -> None:
        """Emit ``prefix.evict`` events for cache entries dropped under pressure."""
        if not entries or not self._tracing:
            return
        for entry in entries:
            self.tracer.emit(
                TraceEvent(
                    obs.PREFIX_EVICT,
                    time,
                    replica=self.trace_replica,
                    attrs={
                        "session_id": entry.session_id,
                        "tokens": entry.tokens,
                        "cause": "pool-pressure",
                    },
                )
            )

    def _make_room(self, protect: Request, time: float, evicted: list[Request]) -> bool:
        """Evict until one token slot frees up; the engine's one eviction rule.

        Cached session prefixes go first — dropping a cold prefix is strictly
        cheaper than evicting a running request's whole context.  Then the
        resident other than ``protect`` with the latest admission goes: it has
        the least KV investment and has delivered the fewest tokens (vLLM's
        default preemption).  Of residents admitted at the same instant, the
        earliest in batch order goes first.  ``protect`` (the request whose
        token needs the slot) goes only when it is the last resident; then
        ``False`` is returned, as its token cannot be produced this step.
        The victim is re-queued and recomputed (:meth:`_evict`).
        """
        if self.prefix_cache is not None and len(self.prefix_cache):
            self._evict_prefixes(self.prefix_cache.evict_for_allocation(1), time)
            if self.pool.free_tokens > 0:
                return True
        while True:
            # ``max`` keeps the first of equal keys: the tie-break above.
            victim = max(
                (r for r in self.batch if r is not protect),
                key=lambda r: r.admission_times[-1],
                default=protect,
            )
            self._evict(victim, time)
            evicted.append(victim)
            if victim is protect:
                return False
            if self.pool.free_tokens > 0:
                return True

    def _evict(self, request: Request, time: float) -> None:
        stop = len(self._ends) - 1 if request in self._unserved else None
        self.pool.free(self._remove(request, stop))
        request.evict()
        self.waiting.appendleft(request)
        self.stats.total_evictions += 1
        self.scheduler.on_request_evicted(request, time)
        if self._tracing:
            self.tracer.emit(
                TraceEvent(
                    obs.REQUEST_EVICTED,
                    time,
                    request_id=request.request_id,
                    replica=self.trace_replica,
                    attrs={
                        "generated_tokens": request.generated_tokens,
                        "eviction_count": request.eviction_count,
                    },
                )
            )

    def _finish(self, request: Request, end_time: float, finished: list[Request]) -> None:
        """Retire a resident whose last token ended this iteration."""
        tokens = self._remove(request)
        request.finish(end_time)
        retained = False
        spec = request.spec
        if (
            self.prefix_cache is not None
            and spec.session_id is not None
            and spec.session_stage is not None
            and not spec.is_final_stage
        ):
            # Park the accumulated context for the session's next turn
            # instead of freeing it; the tokens stay charged to the pool.
            outcome = self.prefix_cache.retain(spec.session_id, spec.session_stage, tokens)
            self._evict_prefixes(outcome.evicted, end_time)
            retained = outcome.retained
        if not retained:
            self.pool.free(tokens)
        finished.append(request)
        self.stats.total_finished += 1
        self.scheduler.on_request_finished(request, end_time)
        if self._tracing:
            self.tracer.emit(
                TraceEvent(
                    obs.REQUEST_FINISHED,
                    end_time,
                    request_id=request.request_id,
                    replica=self.trace_replica,
                    attrs={
                        "generated_tokens": request.generated_tokens,
                        "evictions": request.eviction_count,
                    },
                )
            )

    def _serve_in_order(
        self,
        targets: list[Request],
        roomy: int,
        end_time: float,
        finished: list[Request],
        evicted: list[Request],
    ) -> None:
        """Serve the targets in order; past the ``roomy`` allocated ones each
        grower makes room first, and may be evicted unserved."""
        unserved = self._unserved
        unserved.update(targets[roomy:])
        for position, request in enumerate(targets):
            if position >= roomy:
                if not request.is_running:
                    continue  # evicted to make room for an earlier grower
                if not self.pool.free_tokens and not self._make_room(request, end_time, evicted):
                    continue
                self.pool.allocate(1)
                self.stats.total_decode_tokens += 1
                unserved.discard(request)
            if self._tracing and request.generated_tokens == 1:
                self.tracer.emit(
                    TraceEvent(
                        obs.REQUEST_FIRST_TOKEN,
                        end_time,
                        request_id=request.request_id,
                        replica=self.trace_replica,
                        attrs={"prefill_tokens": request.prefilled_tokens},
                    )
                )
            if request.remaining_true_tokens == 0:
                self._finish(request, end_time, finished)
        unserved.clear()

    # ------------------------------------------------------------------- step
    def step(self, time: float) -> StepResult:
        """Run one continuous-batching iteration starting at ``time``."""
        self._step_counter += 1
        admitted = self._admit(time)
        decode_count = self._decoding
        # Target order matters only at the pool boundary or when tracing.
        slow = self._tracing or len(self.batch) > self.pool.free_tokens
        decoders = [r for r in self.batch if r.state is RequestState.DECODING] if slow else None
        uniform = decode_count == len(self.batch)
        prefill_tokens, completed_prefill = (0, []) if uniform else self._plan_prefill()
        images = sum(1 for r in admitted if r.spec.image_tokens > 0)
        work = StepWork(
            prefill_tokens=prefill_tokens,
            decode_requests=decode_count,
            decode_context_tokens=self._decode_context,
            images_encoded=images,
        )
        duration = self.cost_model.step_seconds(work)
        end_time = time + duration

        # Every open segment gains this end's token; completed prefills open.
        index = len(self._ends)
        self._ends.append(end_time)
        self._decode_context += decode_count
        for request in completed_prefill:
            self._open(request, index, prefilled=True)
        # The first ``roomy`` tokens take one allocation: none of them can
        # find the pool full, and finishes among them free exactly what the
        # per-token path would have seen.  Only the rest may need evictions.
        roomy = min(self.pool.free_tokens, decode_count + len(completed_prefill))
        self.pool.allocate(roomy)
        self.stats.total_decode_tokens += roomy
        evicted: list[Request] = []
        finished: list[Request] = []
        if decoders is None:
            # Finish every resident whose last token is this end, in heap order.
            due, order = self._due, self._order
            while due and due[0][0] <= index:
                _, _, position, request = heapq.heappop(due)
                if order.get(request) == position:
                    self._finish(request, end_time, finished)
        else:
            self._serve_in_order(decoders + completed_prefill, roomy, end_time, finished, evicted)
        future_required = self._refresh_silent_cache()

        self.stats.total_prefill_tokens += prefill_tokens
        self.jump_stats.loop_steps += 1
        if work.is_idle:
            self.stats.idle_steps += 1
        else:
            self.stats.decoding_steps += 1
        if self._tracing and (admitted or finished or evicted or prefill_tokens):
            # Silent iterations are covered by engine.jump spans (or are not
            # interesting enough to log one-by-one); eventful ones carry the
            # whole story of where scheduling activity happened.
            self.tracer.emit(
                TraceEvent(
                    obs.ENGINE_STEP,
                    time,
                    replica=self.trace_replica,
                    duration=duration,
                    attrs={
                        "step": self._step_counter,
                        "source": "loop",
                        "admitted": len(admitted),
                        "finished": len(finished),
                        "evicted": len(evicted),
                        "prefill_tokens": prefill_tokens,
                        "batch_size": len(self.batch),
                    },
                )
            )

        self.memory_timeline.record(
            time=end_time,
            used_tokens=self.pool.used_tokens,
            future_required_tokens=future_required,
            running_requests=len(self.batch),
            queued_requests=len(self.waiting),
        )
        return StepResult(
            step=self._step_counter,
            start_time=time,
            duration=duration,
            admitted=admitted,
            finished=finished,
            evicted=evicted,
            work=work,
        )

    def _refresh_silent_cache(self) -> int:
        """Oracle peak future memory of the batch, and the jump's batch profile.

        Uses the hidden true output lengths, so it measures how much memory
        the admitted batch *will actually* need — the "Future Required Memory"
        column of Table 1.  The schedulers never see this value.

        Also rewrites :attr:`_silent_cache`: the batch profile when every
        resident is decoding, ``None`` otherwise.  :meth:`step` calls this
        after its last batch change, so the profile is always current.
        """
        requests = self.batch
        if not requests:
            # No segment reads the end list: start it afresh (bounded memory).
            self._ends.clear()
            self._due.clear()
            self._silent_cache = None
            return 0
        if self._decoding < len(requests):
            self._silent_cache = None
            return peak_future_memory(
                [r.current_context_tokens for r in requests], [r.remaining_true_tokens for r in requests]
            )
        # Uniform: each resident's two segment constants give both columns.
        n = len(self._ends)
        future_required = peak_future_memory(
            [r.context_offset + n for r in requests], [r.last_end + 1 - n for r in requests]
        )
        due, order = self._due, self._order
        while order.get(due[0][3]) != due[0][2]:
            heapq.heappop(due)  # a request that left the batch
        min_remaining = due[0][0] + 1 - len(self._ends)
        self._silent_cache = (len(requests), self._decode_context, future_required, min_remaining)
        return future_required

    # ------------------------------------------------------------- event jump
    def try_jump_any(
        self,
        time: float,
        horizon: float | None = None,
        max_steps: int | None = None,
        max_time: float | None = None,
    ) -> JumpResult | None:
        """Fuse as many provably event-free decode iterations as possible.

        The engine's one event-jump entry point.  Fused iterations are always
        pure uniform decode: nothing prefills, finishes, or can evict.  What
        keeps them admission free depends on the waiting queue:

        * **silent** — the queue is empty, so no iteration consults the
          scheduler at all;
        * **saturated** — the queue is not empty, and every iteration would
          consult the admission scheduler, whose RNG stream is part of the
          reproduced semantics.  The scheduler itself must prove that its
          next decisions all admit nothing
          (:meth:`~repro.schedulers.base.Scheduler.saturated_no_admit_horizon`,
          handed the context of the first upcoming iteration); after the
          macro-step it is told how many consultations were fused
          (:meth:`~repro.schedulers.base.Scheduler.on_saturated_steps_fused`)
          so RNG-consuming policies advance their stream to exactly where K
          sequential consultations would have left it.

        The macro-step reproduces the reference loop exactly: per-iteration
        durations come from :meth:`CostModel.decode_durations` (the same
        float operations the scalar path performs), drawn only for the
        iterations that fuse; token timestamps are the reference loop's
        ``time += duration`` chain, added to the end-time list once; the
        pool grows by the fused iterations' tokens in one allocation; and the
        memory timeline receives one row per fused iteration (with the
        constant waiting-queue depth, as the reference iterations record).

        Args:
            time: simulation clock at the start of the macro-step.
            horizon: earliest external event (next arrival, autoscale
                decision, replica warm-up, ...).  Intermediate iteration ends
                stay strictly below it; only the final fused iteration may
                cross it, exactly as a reference step started before the event
                would.
            max_steps: remaining step budget of the caller's safety limits.
            max_time: the caller's simulation-time limit; the jump stops with
                the first iteration that crosses it (the caller then
                terminates, as the reference loop does).

        Returns:
            ``None`` when fewer than ``_MIN_JUMP_STEPS`` next iterations are
            provably event free — the caller must fall back to
            :meth:`step`.  Each such attempt counts one
            :attr:`JumpStats.fallback_reasons` entry.
        """
        stats = self.jump_stats
        queued = len(self.waiting)
        source = "saturated" if queued else "silent"
        # The engine-side half of the proof.  A profile exists only while
        # every resident decodes; the iteration that delivers some request's
        # last token finishes it (an event), so only those before it can
        # fuse, and only as many as the pool can grow every resident by.
        cache = self._silent_cache
        bound = 0
        if cache is not None and cache[3] > 1:
            bound = min(self.pool.free_tokens // cache[0], cache[3] - 1)
        if bound < _MIN_JUMP_STEPS:
            stats.note_fallback("saturated:not-uniform" if queued else "silent:no-window")
            return None
        if max_steps is not None and max_steps < bound:
            bound = max_steps
        if bound < _MIN_JUMP_STEPS:
            stats.note_fallback(f"{source}:step-budget")
            return None
        if queued:
            # Built once per attempt (the reference loop builds one per
            # iteration).
            context = self._scheduling_context()
            bound = min(bound, self.scheduler.saturated_no_admit_horizon(context, bound))
            if bound < _MIN_JUMP_STEPS:
                stats.note_fallback("saturated:scheduler-horizon")
                return None
        result = self._execute_jump(time, bound, horizon, max_time, queued, source)
        if result is None:
            stats.note_fallback(f"{source}:horizon-clip")
        else:
            stats.steps_fused += result.steps
            if queued:
                stats.saturated_jumps += 1
                self.scheduler.on_saturated_steps_fused(result.steps)
            else:
                stats.silent_jumps += 1
        return result

    def _execute_jump(
        self,
        time: float,
        bound: int,
        horizon: float | None,
        max_time: float | None,
        queued_requests: int,
        source: str,
    ) -> JumpResult | None:
        """Advance up to ``bound`` proven-event-free iterations in one macro-step.

        The tail of :meth:`try_jump_any`, which has already proven that the
        next ``bound`` iterations are pure uniform decode with no admissions.
        """
        cache = self._silent_cache
        assert cache is not None  # established by the caller's bound proof
        batch_size, context_tokens, future_required, min_remaining = cache
        # The reference loop's ``time += duration`` chain, drawn one
        # iteration at a time: it stops at ``bound`` or after the first end
        # that reaches the clip, since the reference loop would handle the
        # external event (or the time limit) before the next iteration.
        clip = min(math.inf if horizon is None else horizon, math.inf if max_time is None else max_time)
        ends = accumulate(self.cost_model.decode_durations(batch_size, context_tokens), initial=time)
        end_times: list[float] = []
        for end in islice(ends, 1, bound + 1):  # skip the initial ``time``
            end_times.append(end)
            if end >= clip:
                break
        steps = len(end_times)
        if steps < _MIN_JUMP_STEPS:
            return None

        used_before = self.pool.used_tokens
        self.pool.allocate(steps * batch_size)
        self._ends += end_times
        self._decode_context += steps * batch_size
        self.memory_timeline.record_jump(
            times=end_times,
            first_used_tokens=used_before,
            used_tokens_per_step=batch_size,
            future_required_tokens=future_required,
            running_requests=batch_size,
            queued_requests=queued_requests,
        )
        self._step_counter += steps
        self.stats.decoding_steps += steps
        self.stats.total_decode_tokens += steps * batch_size
        self._silent_cache = (
            batch_size,
            context_tokens + steps * batch_size,
            future_required,
            min_remaining - steps,
        )
        if self._tracing:
            self.tracer.emit(
                TraceEvent(
                    obs.ENGINE_JUMP,
                    time,
                    replica=self.trace_replica,
                    duration=end_times[-1] - time,
                    attrs={
                        "source": source,
                        "steps": steps,
                        "decode_tokens": steps * batch_size,
                        "batch_size": batch_size,
                    },
                )
            )
        return JumpResult(steps=steps, end_time=end_times[-1], source=source)
