"""Shared invariant harness for the test suite.

Five contracts recur across the serving tests — conservation (nothing
vanishes), fingerprint neutrality (a feature left off is byte-invisible),
fast-path/reference identity (the event-jump loop consumes the same RNG
stream and produces bit-identical results), the KV ledger (the pool's
one number is what its owners hold), and punctuality (every arrival is
handled at its scheduled time).  Each used to be hand-rolled per
test module; this module is the single implementation they all share.
It also holds the one builder of requests in a given token state
(:func:`grown_request`, :func:`deliver`, :func:`seat`): a request's decode
tokens are a segment of its engine's end-time list, so tests reach that
state through the segment API and real lifecycle transitions, never by
assigning derived fields.

Every helper accepts results, zero-argument callables producing results, or
precomputed digest strings, so call sites can pass whatever they already
have without re-running simulations.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Union

from repro.analysis.perf import cluster_fingerprint, run_fingerprint
from repro.core.history import OutputLengthHistory
from repro.engine.request import Request, RequestState
from repro.obs import events as obs
from repro.schedulers.base import SchedulingContext
from repro.serving.results import ClusterResult, RunResult

#: Anything the helpers can reduce to a fingerprint digest.
Fingerprintable = Union[RunResult, ClusterResult, str, Callable[[], "Fingerprintable"]]


def fingerprint_of(source: Fingerprintable) -> str:
    """Reduce a result, callable, or digest string to a fingerprint digest."""
    if callable(source):
        source = source()
    if isinstance(source, str):
        return source
    if isinstance(source, ClusterResult):
        return cluster_fingerprint(source)
    return run_fingerprint(source)


def assert_conservation(result, submitted: int | None = None) -> None:
    """Routed + rejected must equal submitted — no request ever vanishes.

    Works for both :class:`~repro.serving.results.RunResult` (served ==
    ``len(requests)``) and ``ClusterResult`` (served == ``routed_requests``,
    which counts each request once however many retries it took).  When
    ``submitted`` is omitted it is derived from the distinct request ids the
    result knows about, which stays correct when retried copies of one
    request appear on several replicas.
    """
    rejected = len(result.rejected)
    if isinstance(result, ClusterResult):
        served = result.routed_requests
    else:
        served = len(result.requests)
    if submitted is None:
        ids = {r.request_id for r in result.requests}
        ids |= {r.request_id for r in result.rejected}
        submitted = len(ids)
    assert served + rejected == submitted, (
        f"conservation violated: {served} served + {rejected} rejected "
        f"!= {submitted} submitted"
    )


def assert_fingerprint_neutral(
    scenario: Fingerprintable, feature_off: Fingerprintable, label: str = "feature"
) -> None:
    """The scenario must hash byte-identically with the feature off.

    ``scenario`` is the run with the subsystem under test present (or a
    committed pre-feature digest to compare against); ``feature_off`` is the
    same recipe without it.  Any divergence means the subsystem leaked into
    a pipeline it was supposed to leave untouched.
    """
    on_digest = fingerprint_of(scenario)
    off_digest = fingerprint_of(feature_off)
    assert on_digest == off_digest, (
        f"{label} is not byte-neutral: {on_digest[:16]}... != {off_digest[:16]}..."
    )


def assert_rng_stream_identity(fast: Fingerprintable, reference: Fingerprintable) -> None:
    """The fast path must be bit-identical to the reference loop.

    Identical fingerprints imply the event-jump loop consumed every RNG
    stream (admission sampling, retry jitter, fault hashing) exactly as the
    one-iteration-at-a-time reference did — a jump that skipped or reordered
    a single draw would cascade into visibly different metrics.
    """
    fast_digest = fingerprint_of(fast)
    reference_digest = fingerprint_of(reference)
    assert fast_digest == reference_digest, (
        f"fast path diverged from reference loop: {fast_digest[:16]}... != "
        f"{reference_digest[:16]}... (results or RNG stream differ)"
    )


def reference_peak(current, remaining) -> int:
    """Eq. 2-4 written out in plain Python: sort, then the max of Eq. 3."""
    ordered = sorted(zip(current, remaining), key=lambda entry: -entry[1])
    peak, prefix = 0, 0
    for rank, (tokens, left) in enumerate(ordered, start=1):
        prefix += tokens
        peak = max(peak, prefix + left * rank)
    return peak


def assert_pool_ledger(engine) -> None:
    """The pool's used tokens are exactly what their owners hold.

    The pool keeps one count; the owners keep theirs — every resident
    request its ``current_context_tokens``, every cached prefix its
    ``tokens``.  An engine without a prefix cache holds no cached tokens.
    """
    cache = engine.prefix_cache
    cached = cache.resident_tokens if cache is not None else 0
    resident = sum(r.current_context_tokens for r in engine.batch)
    assert engine.pool.used_tokens == resident + cached, (
        f"pool ledger broken: {engine.pool.used_tokens} used != "
        f"{resident} resident + {cached} cached"
    )


def assert_no_late_arrivals(events, result) -> None:
    """Every traced ``request.submit`` happens at its request's arrival time.

    The loop traces a submit when it handles an arrival; the request keeps
    the time its load generator scheduled (served, rejected or failed alike).
    A loop that missed a follow-up spawned by a completion would handle it at
    some later event instead: late by the same amount on the fast path and
    the reference loop, so fast-path identity alone cannot see it.
    """
    scheduled = {
        r.request_id: r.arrival_time
        for r in (*result.requests, *result.rejected, *getattr(result, "failed", ()))
    }
    submits = [e for e in events if e.name == obs.REQUEST_SUBMIT]
    assert submits, "no request.submit events were traced"
    late = [
        (e.request_id, e.time, scheduled[e.request_id])
        for e in submits
        if e.time != scheduled[e.request_id]
    ]
    assert not late, (
        f"{len(late)} of {len(submits)} arrivals handled late; first: "
        f"{late[0][0]} submitted at {late[0][1]!r}, scheduled at {late[0][2]!r}"
    )


def deliver(request: Request, times: Iterable[float]) -> Request:
    """Stream one token per entry of ``times`` to a running request.

    The engine's own path: a request still prefilling finishes its
    (re)prefill, then a decode segment over ``times`` opens and closes.
    """
    if request.state is RequestState.PREFILLING:
        request.note_prefill(request.prefill_remaining)
    request.open_segment(list(times), 0)
    request.close_segment()
    return request


def grown_request(
    spec,
    generated: int = 0,
    *,
    queued: bool = False,
    admit_time: float = 0.0,
    arrival_time: float = 0.0,
) -> Request:
    """A request of ``spec`` that has generated ``generated`` tokens.

    Admitted at ``admit_time`` and prefilled, it receives one token per
    second after admission and is left decoding — or, with ``queued``,
    evicted back to the queue, where it waits to recompute its context (a
    queued request with no tokens is a fresh arrival).
    """
    request = Request(spec=spec, arrival_time=arrival_time)
    if queued and not generated:
        return request
    request.admit(admit_time)
    deliver(request, [admit_time + step + 1 for step in range(generated)])
    if queued:
        request.evict()
    return request


def seat(engine, requests: Iterable[Request]) -> None:
    """Make decoding ``requests`` residents of ``engine``, in batch order.

    As admission does: each joins the batch, its context is allocated, and
    its decode segment opens on the engine's next iteration end.
    """
    for request in requests:
        engine._join(request)
        engine.pool.allocate(request.current_context_tokens)
        engine._open(request, len(engine._ends))


def record(history: OutputLengthHistory, lengths: Iterable[int]) -> None:
    """Record each finished output length of ``lengths``, in order."""
    for length in lengths:
        history.record(length)


def history_of(lengths: Iterable[int]) -> OutputLengthHistory:
    """A history whose window holds exactly ``lengths``."""
    lengths = list(lengths)
    history = OutputLengthHistory(window_size=max(len(lengths), 1))
    record(history, lengths)
    return history


def vtc_counter(scheduler, tenant: str) -> float:
    """A VTC scheduler's virtual counter for ``tenant`` (0 if never charged)."""
    return scheduler._counters.get(tenant, 0.0)


def cache_entries(cache) -> list:
    """A prefix cache's resident entries, least recently used first."""
    return list(cache._entries.values())


class SchedulerQueue:
    """A waiting queue kept the way the engine keeps it, for hand-built consults.

    A scheduler may index the queue itself (VTC keeps one FIFO per tenant),
    so a test that consults one directly fires the hooks the engine fires:
    :meth:`submit` appends, :meth:`evict` re-queues at the front and
    :meth:`dequeue` removes an admitted request.  :meth:`context` fills the
    running batch's context total from the requests, as the pool ledger does.
    Build one per scheduler and call :meth:`context` once per consult: a
    second queue over the same requests would submit them twice.
    """

    def __init__(self, scheduler, waiting: Iterable = ()) -> None:
        self.scheduler = scheduler
        self.waiting: deque = deque()
        for request in waiting:
            self.submit(request)

    def submit(self, request) -> None:
        self.waiting.append(request)
        self.scheduler.on_request_submitted(request)

    def evict(self, request, time: float = 0.0) -> None:
        self.waiting.appendleft(request)
        self.scheduler.on_request_evicted(request, time)

    def dequeue(self, request) -> None:
        self.waiting.remove(request)
        self.scheduler.on_request_dequeued(request)

    def context(self, running: Iterable = (), token_capacity: int = 1000) -> SchedulingContext:
        running = list(running)
        return SchedulingContext(
            running=running,
            running_tokens=sum(r.current_context_tokens for r in running),
            waiting=list(self.waiting),
            token_capacity=token_capacity,
        )
