"""The typed event taxonomy the simulators emit.

Event names are dot-separated ``subsystem.what`` strings grouped into three
families; each constant below documents its emitter, its timestamp meaning,
and the ``attrs`` payload it carries.  The taxonomy is the contract between
the emitting layers and the consumers (:mod:`repro.obs.export`,
``tools/trace_report.py``): add new events here first, then emit them.

Request lifecycle (one ``request_id`` per event)::

    request.submit ──► request.throttled            (turned away pre-queue)
                  └──► request.routed / .rejected / .deferred   (fleet only)
                  └──► request.queued ──► request.admitted
                           ▲                  │
                           └── request.evicted┤
                                              ▼
                            request.first_token ──► request.finished

Engine execution: ``engine.step`` spans cover *eventful* iterations (an
admission, finish, eviction, or prefill work happened); provably event-free
iterations are covered by ``engine.jump`` spans instead, one per fused
macro-step — together the two reconstruct where simulated time went without
logging millions of silent decode steps.

Fleet: replica lifecycle transitions plus the decisions that caused them.
When a fault plan is attached (:mod:`repro.serving.faults`), the taxonomy
grows a failure arc: ``replica.fail`` / ``replica.recover`` on the fleet
side, and ``request.retry`` feeding requests back into the routing funnel
above.
"""

from __future__ import annotations

# ---------------------------------------------------------- request lifecycle
#: A load generator produced an arrival (simulator level, before any gate).
#: attrs: prompt_tokens, and when present user_id / app_id / sla_class.
REQUEST_SUBMIT = "request.submit"

#: The overload throttle turned the arrival away before routing/queueing.
#: attrs: reason, plus the user window usage behind the decision
#: (user_window / user_rpm when configured).
REQUEST_THROTTLED = "request.throttled"

#: A router placed the request on a replica.  attrs: replica (target id),
#: candidates (routable count), and the chosen replica's scoring signals
#: (load_fraction, headroom_fraction, saturated).
REQUEST_ROUTED = "request.routed"

#: The fleet turned the request away: a fault left it no retry, no replica
#: remained to route it to, or the run ended with it still parked.
#: attrs: reason.
REQUEST_REJECTED = "request.rejected"

#: The request arrived while every replica was still warming, and was parked
#: until the first one is ready.  attrs: retry_at.
REQUEST_DEFERRED = "request.deferred"

#: The request entered an engine's waiting queue.  attrs: queue_depth.
REQUEST_QUEUED = "request.queued"

#: The admission scheduler moved the request into the running batch.
#: attrs: step, used_tokens, batch_size, plus any
#: :meth:`repro.schedulers.base.Scheduler.trace_signals` the policy exposes.
REQUEST_ADMITTED = "request.admitted"

#: Prefill completed — the first output token reached the client.
#: attrs: prefill_tokens (prompt tokens computed this residency).
REQUEST_FIRST_TOKEN = "request.first_token"

#: Generation completed.  attrs: generated_tokens, evictions.
REQUEST_FINISHED = "request.finished"

#: The request lost its KV cache and returned to the waiting queue.
#: attrs: generated_tokens, eviction_count.
REQUEST_EVICTED = "request.evicted"

#: A replica crash sent the request back through the retry policy; it will
#: re-enter routing at ``retry_at``.  attrs: attempt, retry_at, cause.
REQUEST_RETRY = "request.retry"

# ------------------------------------------------------------ session lifecycle
#: The first stage of a multi-turn session entered the system.
#: attrs: session_id, stages (total turns the session will attempt).
SESSION_START = "session.start"

#: A non-final session stage completed, spawning the next turn.
#: attrs: session_id, stage (0-based index of the completed turn).
SESSION_STAGE = "session.stage"

#: A session ended — its final stage completed, or an earlier stage was
#: rejected/aborted and the remaining turns were abandoned.
#: attrs: session_id, turns_completed, abandoned.
SESSION_END = "session.end"

#: An admitted request extended a resident session prefix: the shared KV
#: tokens were claimed instead of re-allocated and the shared prompt tokens
#: skipped recompute.  attrs: session_id, reused_tokens, new_tokens.
PREFIX_HIT = "prefix.hit"

#: A session request found no resident prefix on its replica (first turn,
#: re-homed session, or an already-evicted entry) and prefills in full.
#: attrs: session_id, prompt_tokens.
PREFIX_MISS = "prefix.miss"

#: A cached session prefix was released — LRU pressure from the pool or the
#: cache's own token budget.  attrs: session_id, tokens, cause.
PREFIX_EVICT = "prefix.evict"

# ---------------------------------------------------------------- engine spans
#: One *eventful* continuous-batching iteration (admission, finish, eviction,
#: or prefill work).  A span: ``time`` is the iteration start, ``duration``
#: its modelled latency.  attrs: step, source (always "loop"; names the
#: Chrome span, see :mod:`repro.obs.export`), admitted / finished / evicted
#: counts, prefill_tokens, batch_size.
ENGINE_STEP = "engine.step"

#: One event-jump macro-step fusing provably event-free iterations.  A span:
#: ``time`` is the first fused iteration's start, ``duration`` covers all of
#: them.  attrs: source ("silent" / "saturated"), steps (iterations fused),
#: decode_tokens, batch_size.
ENGINE_JUMP = "engine.jump"

# ----------------------------------------------------------------- fleet events
#: A replica was launched (cold engine).  attrs: platform, warmup_delay,
#: state ("warming" or "active" for zero-delay launches).
REPLICA_LAUNCH = "replica.launch"

#: A warming replica finished its warm-up delay and became routable.
REPLICA_ACTIVATE = "replica.activate"

#: A replica stopped accepting placements and began draining resident work.
#: attrs: running, waiting (work left to drain).
REPLICA_DRAIN = "replica.drain"

#: A replica was released (drained or cancelled while warming).
REPLICA_RETIRE = "replica.retire"

#: A fault degraded or killed a replica.  attrs: cause ("crash" or
#: "straggler"), plus killed / lost_tokens for crashes and slowdown for
#: stragglers.
REPLICA_FAIL = "replica.fail"

#: A degraded replica returned to full health (straggler window closed).
REPLICA_RECOVER = "replica.recover"

#: The autoscaler evaluated its policy.  attrs: target, provisioned, active,
#: warming, draining, saturation_rate, arrival_rate.
AUTOSCALE_DECISION = "autoscale.decision"

#: Canonical ordering of the taxonomy with a one-line description per event;
#: ``tools/trace_report.py`` and docs/observability.md render from this.
EVENT_TAXONOMY: dict[str, str] = {
    REQUEST_SUBMIT: "load generator produced an arrival",
    REQUEST_THROTTLED: "overload throttle rejected the arrival pre-queue",
    REQUEST_ROUTED: "router placed the request on a replica",
    REQUEST_REJECTED: "fleet turned the request away unserved",
    REQUEST_DEFERRED: "request parked until a warming replica is ready",
    REQUEST_QUEUED: "request entered an engine waiting queue",
    REQUEST_ADMITTED: "scheduler admitted the request into the batch",
    REQUEST_FIRST_TOKEN: "prefill completed; first token delivered",
    REQUEST_FINISHED: "generation completed",
    REQUEST_EVICTED: "request evicted back to the waiting queue",
    REQUEST_RETRY: "fault sent the request back through the retry policy",
    SESSION_START: "first stage of a multi-turn session entered the system",
    SESSION_STAGE: "session stage completed, spawning the next turn",
    SESSION_END: "session finished its final stage or was abandoned",
    PREFIX_HIT: "admitted request reused a resident session prefix",
    PREFIX_MISS: "session request found no resident prefix on its replica",
    PREFIX_EVICT: "cached session prefix released under memory pressure",
    ENGINE_STEP: "eventful continuous-batching iteration (span)",
    ENGINE_JUMP: "event-jump macro-step of fused iterations (span)",
    REPLICA_LAUNCH: "replica launched (cold engine)",
    REPLICA_ACTIVATE: "replica finished warm-up and became routable",
    REPLICA_DRAIN: "replica began draining resident work",
    REPLICA_RETIRE: "replica released",
    REPLICA_FAIL: "fault degraded or killed a replica",
    REPLICA_RECOVER: "degraded replica returned to full health",
    AUTOSCALE_DECISION: "autoscaler evaluated its sizing policy",
}
