"""Running-batch container used by the continuous-batching engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.request import Request, RequestState


@dataclass
class RunningBatch:
    """Requests currently resident in the KV cache.

    Admission order is preserved: the engine's eviction rule breaks ties
    between requests admitted at the same instant by it.
    """

    requests: list[Request] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __contains__(self, request: Request) -> bool:
        return request in self.requests

    @property
    def is_empty(self) -> bool:
        """Whether no request is resident."""
        return not self.requests

    def add(self, request: Request) -> None:
        """Append a newly admitted request."""
        self.requests.append(request)

    def remove(self, request: Request) -> None:
        """Remove a finished or evicted request."""
        self.requests.remove(request)

    @property
    def decoding(self) -> list[Request]:
        """Requests whose prefill is complete and are generating tokens."""
        return [r for r in self.requests if r.state is RequestState.DECODING]

    @property
    def prefilling(self) -> list[Request]:
        """Requests still processing their prompt (chunked prefill)."""
        return [r for r in self.requests if r.state is RequestState.PREFILLING]

    @property
    def total_context_tokens(self) -> int:
        """KV tokens held by all resident requests."""
        return sum(r.current_context_tokens for r in self.requests)
