"""Engine-side request lifecycle.

A :class:`Request` wraps a :class:`~repro.workloads.spec.RequestSpec` with the
mutable state the engine and schedulers track: how many tokens have been
generated, when each token was delivered to the client (for TTFT/TPOT/MTPOT),
how often the request has been evicted, and which lifecycle state it is in.

A decoding request gets one token per iteration end, so it keeps only an open
*segment*: the engine's list of end times and the index (its *lead*) of its
first token there.  Token counts and times are derived from it until
:meth:`Request.close_segment` materialises them (finish, eviction, abort).

Lifecycle::

    QUEUED --admit--> PREFILLING --prompt done--> DECODING --EOS/cap--> FINISHED
       ^                                      |
       +---------------- evict ---------------+

An evicted request loses its KV cache and returns to the waiting queue; on
re-admission its prompt *and* previously generated tokens must be recomputed
(the paper's "request re-queuing and recomputation"), but the tokens that were
already streamed to the client are not re-delivered — the client simply
observes a long inter-token gap, which is what breaks the MTPOT SLA.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.workloads.spec import RequestSpec


class RequestState(enum.Enum):
    """Lifecycle states of a request inside the serving system."""

    QUEUED = "queued"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    FINISHED = "finished"
    #: killed before completion (replica crash / preemption deadline); the
    #: tokens already streamed stay recorded as the work lost with it.
    ABORTED = "aborted"


#: States in which a request occupies the running batch.  A module constant:
#: building the tuple from enum class attributes on every check is slow.
_RUNNING = (RequestState.PREFILLING, RequestState.DECODING)


@dataclass(eq=False)
class Request:
    """Mutable serving-time state of one request.

    Compared by identity: two requests built from one spec are distinct.
    """

    spec: RequestSpec
    arrival_time: float
    state: RequestState = RequestState.QUEUED
    #: prompt tokens whose KV has been computed in the current residency;
    #: relevant for chunked prefill and after eviction (recomputation).
    prefilled_tokens: int = 0
    #: times at which the request was admitted into the running batch.
    admission_times: list[float] = field(default_factory=list)
    #: number of times the request was evicted from the running batch.
    eviction_count: int = 0
    finish_time: float | None = None
    #: wall-clock time at which the request was aborted, if it ever was.
    abort_time: float | None = None

    def __post_init__(self) -> None:
        # The spec is immutable; snapshot the hot-path token count so the
        # per-iteration accounting does one attribute read instead of a
        # property chain through the spec.
        self._prompt_tokens = self.spec.prompt_tokens
        # Tokens materialised so far, then the open segment (``_ends`` is
        # ``None`` when closed) and its lead.
        self._generated, self._times = 0, []
        self._ends: list[float] | None = None
        self._lead = 0
        #: While a segment is open: the context minus the end list's length,
        #: and the index of the end that carries the last token.
        self.context_offset = self.last_end = 0

    # ------------------------------------------------------------ identities
    @property
    def request_id(self) -> str:
        """Stable identifier (the spec's id)."""
        return self.spec.request_id

    # ------------------------------------------------------------ token math
    @property
    def generated_tokens(self) -> int:
        """Output tokens generated so far (across evictions)."""
        ends = self._ends
        return self._generated if ends is None else self._generated + len(ends) - self._lead

    @property
    def token_times(self) -> list[float]:
        """Wall-clock times at which each output token reached the client."""
        ends = self._ends
        return self._times if ends is None else self._times + ends[self._lead :]

    @property
    def prompt_tokens(self) -> int:
        """Prompt tokens including any image prefix."""
        return self._prompt_tokens

    @property
    def current_context_tokens(self) -> int:
        """KV tokens the request holds once resident: prompt + generated."""
        ends = self._ends
        return self._prompt_tokens + self._generated if ends is None else self.context_offset + len(ends)

    #: Tokens (re)computed at admission: the prompt plus any tokens generated
    #: before an eviction, which is exactly the context the request holds.
    recompute_tokens = current_context_tokens

    @property
    def remaining_true_tokens(self) -> int:
        """Tokens still to be generated according to the hidden true length."""
        ends = self._ends
        if ends is None:
            return max(self.spec.output_length - self._generated, 0)
        return self.last_end + 1 - len(ends)

    @property
    def remaining_cap_tokens(self) -> int:
        """Tokens still allowed by ``max_new_tokens``."""
        return max(self.spec.max_new_tokens - self.generated_tokens, 0)

    @property
    def is_finished(self) -> bool:
        """Whether the request has completed generation."""
        return self.state is RequestState.FINISHED

    @property
    def is_running(self) -> bool:
        """Whether the request currently occupies the running batch."""
        return self.state in _RUNNING

    @property
    def prefill_remaining(self) -> int:
        """Prompt/recompute tokens not yet processed in this residency."""
        return max(self.recompute_tokens - self.prefilled_tokens, 0)

    # ------------------------------------------------------------ transitions
    def admit(self, time: float) -> None:
        """Move the request from the queue into the running batch."""
        if self.state is not RequestState.QUEUED:
            raise ValueError(f"cannot admit request in state {self.state}")
        self.state = RequestState.PREFILLING
        self.prefilled_tokens = 0
        self.admission_times.append(time)

    def note_prefill(self, tokens: int) -> None:
        """Record ``tokens`` prompt tokens processed by (chunked) prefill."""
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        self.prefilled_tokens = min(self.prefilled_tokens + tokens, self.recompute_tokens)
        if self.prefill_remaining == 0 and self.state is RequestState.PREFILLING:
            self.state = RequestState.DECODING

    def open_segment(self, ends: list[float], lead: int) -> int:
        """Stream this residency's tokens as ``ends[lead:]``, an engine's
        append-only end times; returns the index of the last token."""
        if self.state is not RequestState.DECODING:
            raise ValueError(f"cannot stream tokens in state {self.state}")
        generated = self._generated
        self._ends = ends
        self._lead = lead
        self.context_offset = self._prompt_tokens + generated - lead
        self.last_end = lead + self.spec.output_length - generated - 1
        return self.last_end

    def close_segment(self, stop: int | None = None) -> None:
        """Materialise the open segment's tokens ``ends[lead:stop]``, if any."""
        ends = self._ends
        if ends is None:
            return
        tokens = ends[self._lead : stop]
        self._times += tokens
        self._generated += len(tokens)
        self._ends = None

    def evict(self) -> None:
        """Remove the request from the running batch, losing its KV cache."""
        if not self.is_running:
            raise ValueError(f"cannot evict request in state {self.state}")
        self.close_segment()
        self.state = RequestState.QUEUED
        self.prefilled_tokens = 0
        self.eviction_count += 1

    def finish(self, time: float) -> None:
        """Mark the request complete."""
        if not self.is_running:
            raise ValueError(f"cannot finish request in state {self.state}")
        self.close_segment()
        self.state = RequestState.FINISHED
        self.finish_time = time

    def abort(self, time: float) -> None:
        """Kill the request before completion (replica crash / preemption).

        Legal from any live state — queued, prefilling, or decoding — since a
        dying replica takes its whole queue and batch with it.  The token
        timeline is kept: ``generated_tokens`` after an abort is exactly the
        work lost with the request.
        """
        if self.state in (RequestState.FINISHED, RequestState.ABORTED):
            raise ValueError(f"cannot abort request in state {self.state}")
        self.close_segment()
        self.state = RequestState.ABORTED
        self.abort_time = time

    # ------------------------------------------------------------ SLA metrics
    @property
    def first_token_time(self) -> float | None:
        """Wall-clock time of the first delivered token, if any."""
        times = self.token_times
        return times[0] if times else None

    @property
    def ttft(self) -> float | None:
        """Time To First Token (seconds), if the first token was delivered."""
        first = self.first_token_time
        return None if first is None else first - self.arrival_time

    @property
    def tpots(self) -> list[float]:
        """Per-token inter-arrival gaps after the first token."""
        times = self.token_times
        return [later - earlier for earlier, later in zip(times, times[1:])]

    @property
    def max_tpot(self) -> float | None:
        """Maximum inter-token gap (MTPOT), if at least two tokens arrived."""
        gaps = self.tpots
        return max(gaps) if gaps else None

    @property
    def mean_tpot(self) -> float | None:
        """Mean inter-token gap, if at least two tokens arrived."""
        gaps = self.tpots
        return sum(gaps) / len(gaps) if gaps else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request({self.request_id}, state={self.state.value}, "
            f"gen={self.generated_tokens}/{self.spec.output_length})"
        )
