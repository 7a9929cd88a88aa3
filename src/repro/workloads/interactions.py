"""Multi-turn agentic interaction workloads (closed-loop sessions).

Production LLM traffic is increasingly *sessions*, not single shots: a user
prompt triggers an agent turn, whose output (plus tool results or a follow-up
prompt) becomes part of the next turn's prompt, until a final answer — the
fairserve ``Interaction`` model (USER_PROMPT → AGENT_n → FINAL).  Two
properties matter to a serving system:

1. **Closed-loop spawning** — turn *n + 1* cannot arrive before turn *n*
   completes.  :class:`InteractionLoadGenerator` is an
   :class:`~repro.workloads.arrivals.ArrivalQueue` that schedules each
   follow-up turn at its predecessor's completion time (plus an optional
   think time), so session arrivals are *reactions* to the simulation, not a
   pre-recorded trace.
2. **Prefix accumulation** — turn *n + 1*'s prompt is exactly turn *n*'s
   full context (prompt + generated output) extended by the new user/tool
   tokens.  The per-replica :class:`~repro.memory.prefix_cache.PrefixCache`
   exploits this: a turn landing on the replica that served its predecessor
   skips recomputing (and re-allocating) the shared prefix.

Spawned arrivals compose with the event-jump fast path for the same reason
retries do: no request finishes inside a jump, so a follow-up turn can only
be scheduled between macro-steps, where it is visible to the jump horizon
via ``next_arrival_time()`` before any iteration is fused past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.workloads.arrivals import ArrivalQueue
from repro.workloads.spec import SLA_CLASS_INTERACTIVE, RequestSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.request import Request

#: Zipf exponent of a session's turn count (before clipping to the turn range).
_TURN_ALPHA = 1.8


@dataclass(frozen=True)
class InteractionStage:
    """One turn of a session: new prompt tokens appended and output generated.

    ``prompt_tokens`` counts only the tokens this stage *adds* to the
    conversation (the user message or tool result); the request's full
    prompt is the accumulated context of every earlier stage plus these.
    """

    prompt_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0:
            raise ValueError("prompt_tokens must be positive")
        if self.output_tokens <= 0:
            raise ValueError("output_tokens must be positive")


@dataclass(frozen=True)
class Interaction:
    """A multi-stage session: stage *n*'s completion spawns stage *n + 1*.

    Attributes:
        session_id: unique session identity; request ids derive from it.
        stages: the turns, in order.  Stage 0 is the user prompt, the last
            stage the final answer.
        start_time: when the session's first turn arrives.
        think_time: delay between a turn's completion and the next turn's
            arrival (user typing / tool latency).

    Every turn is an interactive-class request without a tenant.
    """

    session_id: str
    stages: tuple[InteractionStage, ...]
    start_time: float = 0.0
    think_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ValueError("session_id must be a non-empty string")
        if not self.stages:
            raise ValueError("an interaction needs at least one stage")
        if not 0 <= self.start_time < math.inf:
            raise ValueError("start_time must be finite and non-negative")
        if not 0 <= self.think_time < math.inf:
            raise ValueError("think_time must be finite and non-negative")

    @property
    def num_stages(self) -> int:
        """Total turns the session will attempt."""
        return len(self.stages)

    def context_before(self, stage: int) -> int:
        """Accumulated conversation tokens carried *into* ``stage``.

        The sum of every earlier stage's full context growth (its new prompt
        tokens plus its generated output) — exactly the tokens a resident
        prefix on the serving replica would hold.
        """
        return sum(s.prompt_tokens + s.output_tokens for s in self.stages[:stage])

    def spec(self, stage: int) -> RequestSpec:
        """The request spec of turn ``stage`` (prompt = accumulated context)."""
        turn = self.stages[stage]
        input_length = self.context_before(stage) + turn.prompt_tokens
        return RequestSpec(
            request_id=f"{self.session_id}/t{stage}",
            input_length=input_length,
            output_length=turn.output_tokens,
            max_new_tokens=turn.output_tokens,
            sla_class=SLA_CLASS_INTERACTIVE,
            session_id=self.session_id,
            session_stage=stage,
            session_stages=self.num_stages,
        )


def generate_interactions(
    num_sessions: int,
    seed: int = 0,
    mean_prompt_tokens: float = 128.0,
    mean_output_tokens: float = 96.0,
    min_turns: int = 1,
    max_turns: int = 8,
    think_time: float = 0.0,
    start_spacing: float = 0.0,
) -> list[Interaction]:
    """Synthesize sessions with heavy-tail turn counts, deterministically.

    Turn counts follow a Zipf(1.8) draw clipped to
    [``min_turns``, ``max_turns``] — most sessions are short, a heavy tail
    runs long (the agent-pipeline shape).  Per-stage prompt sizes are
    lognormal around ``mean_prompt_tokens``; outputs are exponential around
    ``mean_output_tokens``.  The same ``seed`` always yields the same
    sessions.
    """
    if num_sessions <= 0:
        raise ValueError("num_sessions must be positive")
    if not 1 <= min_turns <= max_turns:
        raise ValueError("need 1 <= min_turns <= max_turns")
    rng = np.random.default_rng(seed)
    sessions: list[Interaction] = []
    for index in range(num_sessions):
        turns = int(np.clip(rng.zipf(_TURN_ALPHA), min_turns, max_turns))
        stages = []
        for _ in range(turns):
            prompt = max(1, int(rng.lognormal(np.log(mean_prompt_tokens), 0.5)))
            output = max(1, int(rng.exponential(mean_output_tokens)))
            stages.append(InteractionStage(prompt_tokens=prompt, output_tokens=output))
        sessions.append(
            Interaction(
                session_id=f"s{index:04d}",
                stages=tuple(stages),
                start_time=index * start_spacing,
                think_time=think_time,
            )
        )
    return sessions


class InteractionLoadGenerator(ArrivalQueue):
    """Closed-loop load generator over a set of :class:`Interaction` sessions.

    An :class:`~repro.workloads.arrivals.ArrivalQueue`: completing turn *n*
    of a session schedules turn *n + 1* at completion time plus the
    session's think time.  A turn that is throttled or rejected ends without
    a request, so the session spawns no further turns — it is
    *abandoned*, which per-session metrics account.
    """

    def __init__(self, interactions: list[Interaction]) -> None:
        if not interactions:
            raise ValueError("need at least one interaction")
        super().__init__()
        self._interactions: dict[str, Interaction] = {}
        for interaction in interactions:
            if interaction.session_id in self._interactions:
                raise ValueError(f"duplicate session id {interaction.session_id!r}")
            self._interactions[interaction.session_id] = interaction
        self._min_think_time = min(it.think_time for it in interactions)

    def start(self) -> None:
        """Schedule every session's first turn at its start time."""
        for interaction in self._interactions.values():
            self._push(interaction.start_time, interaction.spec(0))

    def on_request_finished(self, time: float, request: Request | None = None) -> None:
        """A completed ``request`` spawns its session's next stage."""
        if request is None or request.spec.session_id is None or not request.is_finished:
            return
        spec = request.spec
        interaction = self._interactions.get(spec.session_id)
        if interaction is None or spec.session_stage is None:
            return
        done = spec.session_stage + 1
        if done < interaction.num_stages:
            self._push(time + interaction.think_time, interaction.spec(done))

    @property
    def min_follow_up_delay(self) -> float:
        """A finished turn spawns its follow-up one session think time later."""
        return self._min_think_time
