"""Conservative scheduler (TGI / DeepSpeed-MII / TensorRT-LLM style).

A conservative scheduler assumes every request will generate its full
``max_new_tokens`` budget.  A candidate is admitted only if the sum of the
worst-case footprints of all resident requests plus the candidate fits within
the capacity.  That guarantee means no eviction can ever be needed, but the
worst case is so pessimistic (real outputs rarely approach the cap) that most
of the memory sits idle and requests queue for a long time, breaking the TTFT
SLA under load.

The paper also evaluates an *overcommit* variant, where the scheduler pretends
the capacity is ``overcommit`` times larger; this recovers some utilisation at
the price of (often many) evictions.

The admission loop and its no-admit proof are the aggressive baseline's
(:class:`~repro.schedulers.aggressive.AggressiveScheduler`); only the charge
and the budget differ.
"""

from __future__ import annotations

from repro.engine.request import Request
from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.base import SchedulingContext, checked_batch_cap


class ConservativeScheduler(AggressiveScheduler):
    """Admit only if worst-case (prompt + max_new_tokens) footprints all fit.

    Args:
        overcommit: multiplier applied to the capacity when checking the
            worst-case sum.  ``1.0`` is the strict conservative scheduler
            ("no overcommit" in Table 1); ``1.5`` corresponds to the paper's
            ``overcommit=150%`` configuration.
        max_running_requests: optional hard cap on the running batch size.
    """

    name = "conservative"

    def __init__(self, overcommit: float = 1.0, max_running_requests: int | None = None) -> None:
        if overcommit <= 0:
            raise ValueError("overcommit must be positive")
        self.overcommit = overcommit
        self.max_running_requests = checked_batch_cap(max_running_requests)

    @staticmethod
    def _cost(request: Request) -> int:
        """Worst-case final footprint: prompt + the full generation cap."""
        return request.prompt_tokens + request.spec.max_new_tokens

    def _occupied(self, context: SchedulingContext) -> int:
        """The running batch's worst-case footprints (the pool holds less)."""
        return sum(map(self._cost, context.running))

    def _budget(self, context: SchedulingContext) -> int:
        """The capacity, scaled by the overcommit factor."""
        return int(context.token_capacity * self.overcommit)

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        if self.overcommit == 1.0:
            return "conservative (no overcommit)"
        return f"conservative (overcommit={self.overcommit:.0%})"
