"""Theoretical-optimum scheduler (oracle).

Table 1 of the paper includes a "theoretical optimum" row: the best any
admission policy could do if the true output length of every request were
known in advance.  This scheduler implements that oracle — it runs the same
future-required-memory admission test as the Past-Future scheduler, but feeds
it the *true* remaining output lengths instead of sampled predictions and
reserves no headroom.

It is impossible in a real deployment (output lengths are unknown) but it
upper-bounds memory utilisation and lower-bounds decoding steps, which the
ablation benches compare against.
"""

from __future__ import annotations

from typing import Callable

from repro.core.future_memory import FutureMemoryIndex
from repro.engine.request import Request
from repro.schedulers.base import Scheduler, SchedulingContext


class OracleScheduler(Scheduler):
    """Future-memory admission using the hidden true output lengths."""

    name = "oracle"

    @staticmethod
    def _entry(request: Request) -> tuple[int, int]:
        """(current_tokens, true_remaining) for one request."""
        return request.current_context_tokens, request.remaining_true_tokens

    def _fit_test(self, context: SchedulingContext) -> Callable[[Request], bool]:
        # The Past-Future admission test on true remaining lengths, against
        # the whole capacity: each candidate joins the batch only if it fits.
        running = context.running
        index = FutureMemoryIndex(
            [r.current_context_tokens for r in running], [r.remaining_true_tokens for r in running]
        )
        return lambda candidate: index.admit(*self._entry(candidate), context.token_capacity)

    def describe(self) -> str:
        """One-line description used in result tables."""
        return "theoretical optimum (oracle lengths)"
