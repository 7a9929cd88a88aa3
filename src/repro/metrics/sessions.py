"""Session metrics: multi-turn interaction outcomes across a run.

Multi-turn sessions (see :mod:`repro.workloads.interactions`) are served as
one request per turn, each stamped with ``session_id`` / ``session_stage`` /
``session_stages`` on its :class:`~repro.workloads.spec.RequestSpec`.  This
module folds those per-turn requests back into per-session outcomes: how
many turns each session completed, whether it ran to its final stage or was
abandoned (a turn rejected, throttled, or lost mid-run), time-to-first-token
per stage, and — when the serving stack ran with a prefix cache — the
fleet-wide prefix hit rate.

Everything here is pure post-processing over
:class:`~repro.serving.results.RunResult` / ``ClusterResult`` contents; it
never touches simulator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.engine.request import Request
from repro.memory.prefix_cache import PrefixCacheStats
from repro.serving.sla import SLASpec


@dataclass(frozen=True)
class SessionOutcome:
    """Outcome of one multi-turn session.

    Attributes:
        session_id: the session's identity.
        turns_completed: turns that finished generation.
        total_stages: the session's scripted turn count, when any of its
            requests declared one (``None`` for open-ended sessions).
        abandoned: the session did not run to its final stage — some turn
            was rejected, throttled, aborted by a crash, or never spawned.
        ttft_by_stage: time-to-first-token of each finished turn, keyed by
            its 0-based stage index.
    """

    session_id: str
    turns_completed: int
    total_stages: int | None
    abandoned: bool
    ttft_by_stage: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SessionSummary:
    """Aggregate view of every session a run served.

    Attributes:
        num_sessions: distinct sessions observed (served or rejected).
        completed_sessions: sessions that ran to their final stage.
        abandoned_sessions: sessions cut short before their final stage.
        total_turns: finished turns across all sessions.
        sla_violating_sessions: sessions with at least one finished turn
            whose TTFT missed the SLA deadline (0 when no SLA was given).
        prefix_stats: merged prefix-cache counters, when the run carried
            them (``None`` on cache-less runs).
        sessions: per-session outcomes, sorted by session id.
    """

    num_sessions: int
    completed_sessions: int
    abandoned_sessions: int
    total_turns: int
    sla_violating_sessions: int
    prefix_stats: PrefixCacheStats | None
    sessions: tuple[SessionOutcome, ...]

    @property
    def prefix_hit_rate(self) -> float:
        """Fleet prefix-cache hit rate (0.0 when no cache ran)."""
        return self.prefix_stats.hit_rate if self.prefix_stats is not None else 0.0

    def summary(self) -> dict:
        """Compact JSON-ready view (sorted keys for fingerprint stability)."""
        payload = {
            "abandoned_sessions": self.abandoned_sessions,
            "completed_sessions": self.completed_sessions,
            "num_sessions": self.num_sessions,
            "sla_violating_sessions": self.sla_violating_sessions,
            "total_turns": self.total_turns,
        }
        if self.prefix_stats is not None:
            payload["prefix"] = self.prefix_stats.summary()
        return payload

    def describe(self) -> str:
        """One-line session summary for logs and examples."""
        hit = (
            f", prefix hit rate {self.prefix_hit_rate:.0%}"
            if self.prefix_stats is not None
            else ""
        )
        return (
            f"{self.num_sessions} sessions: {self.completed_sessions} completed, "
            f"{self.abandoned_sessions} abandoned, {self.total_turns} turns{hit}"
        )


def session_requests(requests: Iterable[Request]) -> list[Request]:
    """The subset of ``requests`` that belong to some session."""
    return [r for r in requests if r.spec.session_id is not None]


def summarize_sessions(
    requests: Sequence[Request],
    *,
    rejected: Sequence[Request] = (),
    failed: Sequence[Request] = (),
    sla: SLASpec | None = None,
    prefix_stats: PrefixCacheStats | None = None,
) -> SessionSummary:
    """Fold per-turn requests back into per-session outcomes.

    Args:
        requests: every request the run served (any simulator's
            ``result.requests``); non-session requests are ignored.
        rejected: turned-away requests — a session turn here marks its
            session abandoned (the follow-up turn never spawned).
        failed: crash-aborted requests, likewise marking abandonment.
            A crashed turn whose *retry* finished under the same request id
            does not doom its session — the fault subsystem re-dispatches
            aborted work as a fresh request with the same identity, and the
            session continues from the retried turn's completion.
        sla: optional deadlines; finished turns are checked against the
            TTFT bound of their class to count SLA-violating sessions.
        prefix_stats: merged prefix-cache counters to attach, when the run
            carried a cache.
    """
    by_session: dict[str, list[Request]] = {}
    doomed: set[str] = set()
    for request in session_requests(requests):
        by_session.setdefault(request.spec.session_id, []).append(request)
    finished_ids = {
        r.spec.request_id for r in session_requests(requests) if r.is_finished
    }
    for request in session_requests(rejected):
        by_session.setdefault(request.spec.session_id, [])
        if request.spec.request_id not in finished_ids:
            doomed.add(request.spec.session_id)
    for request in session_requests(failed):
        if request.spec.request_id not in finished_ids:
            doomed.add(request.spec.session_id)

    outcomes: list[SessionOutcome] = []
    sla_violating = 0
    total_turns = 0
    for session_id in sorted(by_session):
        turns = by_session[session_id]
        finished = [r for r in turns if r.is_finished]
        total_stages = next(
            (r.spec.session_stages for r in turns if r.spec.session_stages is not None),
            None,
        )
        ttft_by_stage: dict[int, float] = {}
        violated = False
        for turn in finished:
            stage = turn.spec.session_stage
            ttft = turn.ttft
            if stage is not None and ttft is not None:
                ttft_by_stage[stage] = ttft
                if sla is not None:
                    limit = sla.limits_for(turn.spec.sla_class).ttft_limit
                    violated = violated or ttft > limit
        reached_final = any(
            r.spec.is_final_stage and r.is_finished for r in finished
        )
        abandoned = session_id in doomed or (
            not reached_final if total_stages is not None else False
        )
        sla_violating += 1 if violated else 0
        total_turns += len(finished)
        outcomes.append(
            SessionOutcome(
                session_id=session_id,
                turns_completed=len(finished),
                total_stages=total_stages,
                abandoned=abandoned,
                ttft_by_stage=ttft_by_stage,
            )
        )

    completed = sum(1 for outcome in outcomes if not outcome.abandoned)
    return SessionSummary(
        num_sessions=len(outcomes),
        completed_sessions=completed,
        abandoned_sessions=len(outcomes) - completed,
        total_turns=total_turns,
        sla_violating_sessions=sla_violating,
        prefix_stats=prefix_stats,
        sessions=tuple(outcomes),
    )
