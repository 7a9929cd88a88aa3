"""Aggressive scheduler (vLLM style).

The aggressive scheduler ignores how much memory the *outputs* of requests
will eventually need: a candidate is admitted as soon as its prompt fits into
the currently free memory, up to a configurable *watermark* fraction of the
capacity kept free as headroom for near-term decode growth.

Under light load this behaves perfectly, but under heavy decode-heavy load the
running batch keeps growing after admission, the pool overflows, and requests
must be evicted and recomputed — exactly the failure mode the Past-Future
scheduler is designed to avoid.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.request import Request
from repro.schedulers.base import Scheduler, SchedulingContext


class AggressiveScheduler(Scheduler):
    """Admit while current occupancy plus prompts stays under the watermark.

    Args:
        watermark: fraction of the capacity the scheduler is willing to fill
            with *current* tokens at admission time (the paper evaluates 90%,
            95% and 99%).
    """

    name = "aggressive"

    def __init__(self, watermark: float = 0.99) -> None:
        if not 0.0 < watermark <= 1.0:
            raise ValueError("watermark must be in (0, 1]")
        self.watermark = watermark

    @staticmethod
    def _cost(request: Request) -> int:
        """Tokens a request is charged against the budget: its current context."""
        return request.current_context_tokens

    def _budget(self, context: SchedulingContext) -> int:
        """Token budget the charged footprints must stay within."""
        return int(context.token_capacity * self.watermark)

    def _occupied(self, context: SchedulingContext) -> int:
        """The running batch's charge: its current context, off the pool ledger."""
        return context.running_tokens

    def _fit_test(self, context: SchedulingContext) -> Callable[[Request], bool]:
        budget = self._budget(context)
        cost = self._cost
        occupied = self._occupied(context)

        def fits(candidate: Request) -> bool:
            nonlocal occupied
            charge = cost(candidate)
            if occupied + charge > budget:
                return False
            occupied += charge
            return True

        return fits

    def saturated_no_admit_horizon(self, context: SchedulingContext, max_steps: int) -> int:
        """Prove no-admit for a whole uniform-decode window at once.

        The watermark family's one proof.  During uniform decode the batch's
        charge never falls (current context grows by the batch size every
        iteration; worst-case footprints stay fixed), the queue and the
        candidate order are frozen, and a waiting candidate's charge is
        constant.  :meth:`schedule` stops at the first candidate that does
        not fit, so if the first candidate fails :meth:`_fit_test` now, it
        fails at every iteration of the window: one test proves the whole
        horizon.
        """
        if max_steps <= 0 or not context.waiting or not context.running:
            return 0
        first = next(iter(self._candidates(context.waiting)))
        return 0 if self._fit_test(context)(first) else max_steps

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return f"aggressive (watermark={self.watermark:.0%})"
