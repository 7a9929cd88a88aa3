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

import numpy as np

from repro.core.future_memory import FutureMemoryIndex, batched_peak_with_candidate
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

    def saturated_no_admit_horizon(self, context: SchedulingContext, max_steps: int) -> int:
        """Count upcoming iterations whose head-admission test provably fails.

        The oracle admits on *true* remaining lengths, so the window's
        decisions are fully determined: at iteration ``k`` of a uniform
        decode phase every resident has grown ``k`` tokens and has ``k``
        fewer remaining, while the head candidate is unchanged.  All
        ``max_steps`` what-if peaks are evaluated in one vectorized Eq. 2–4
        pass (:func:`repro.core.future_memory.batched_peak_with_candidate`)
        and the count of leading failures is returned.  (No monotonicity
        shortcut applies: as residents drain, the head's insertion position
        shifts, and its peak can fall as well as rise.)
        """
        if max_steps <= 0 or not context.waiting or not context.running:
            return 0
        head_current, head_remaining = self._entry(context.waiting[0])
        current = np.array([r.current_context_tokens for r in context.running], dtype=np.int64)
        remaining = np.array([r.remaining_true_tokens for r in context.running], dtype=np.int64)
        # The engine only asks about windows in which nobody finishes; clamp
        # anyway so a wider direct query cannot feed negative remainings into
        # the peak evaluation (iteration `min(remaining)` would deliver some
        # request's last token — a finish, which ends the window).
        max_steps = min(max_steps, int(remaining.min()))
        if max_steps <= 0:
            return 0
        offsets = np.arange(max_steps, dtype=np.int64)[:, None]
        peaks = batched_peak_with_candidate(
            current[None, :] + offsets,
            remaining[None, :] - offsets,
            head_current,
            np.full(max_steps, head_remaining, dtype=np.int64),
        )
        admit = peaks <= context.token_capacity
        return int(np.argmax(admit)) if admit.any() else max_steps

    def describe(self) -> str:
        """One-line description used in result tables."""
        return "theoretical optimum (oracle lengths)"
