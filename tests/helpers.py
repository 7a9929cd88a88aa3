"""Shared invariant harness for the test suite.

Five contracts recur across the serving tests — conservation (nothing
vanishes), fingerprint neutrality (a feature left off is byte-invisible),
fast-path/reference identity (the event-jump loop consumes the same RNG
stream and produces bit-identical results), the KV ledger (the pool's
one number is what its owners hold), and punctuality (every arrival is
handled at its scheduled time).  Each used to be hand-rolled per
test module; this module is the single implementation they all share.

Every helper accepts results, zero-argument callables producing results, or
precomputed digest strings, so call sites can pass whatever they already
have without re-running simulations.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Union

from repro.analysis.perf import cluster_fingerprint, run_fingerprint
from repro.core.history import OutputLengthHistory
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
    which counts each request once however many retries or migrations it
    took).  When ``submitted`` is omitted it is derived from the distinct
    request ids the result knows about, which stays correct when retried
    copies of one request appear on several replicas.
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


def history_of(lengths: Iterable[int]) -> OutputLengthHistory:
    """A history whose window holds exactly ``lengths``."""
    lengths = list(lengths)
    history = OutputLengthHistory(window_size=max(len(lengths), 1))
    history.extend(lengths)
    return history


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
