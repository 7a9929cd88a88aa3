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
(:class:`~repro.schedulers.aggressive.AggressiveScheduler`); only the charge,
the budget and the optional static batch cap differ.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.request import Request
from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.base import SchedulingContext


class ConservativeScheduler(AggressiveScheduler):
    """Admit only if worst-case (prompt + max_new_tokens) footprints all fit.

    Args:
        overcommit: multiplier applied to the capacity when checking the
            worst-case sum.  ``1.0`` is the strict conservative scheduler
            ("no overcommit" in Table 1); ``1.5`` corresponds to the paper's
            ``overcommit=150%`` configuration.
        max_running_requests: optional static batch size (``None`` = no
            cap): the most requests the running batch may hold, as in the
            HuggingFace-style "Origin" baseline of Table 2.  A full batch
            refuses every candidate.
    """

    name = "conservative"

    def __init__(self, overcommit: float = 1.0, max_running_requests: int | None = None) -> None:
        if overcommit <= 0:
            raise ValueError("overcommit must be positive")
        if max_running_requests is not None and max_running_requests < 1:
            # A cap of 0 would refuse every admission and stall the run.
            raise ValueError(f"max_running_requests must be at least 1 or None, got {max_running_requests!r}")
        self.overcommit = overcommit
        self.max_running_requests = max_running_requests

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

    def _fit_test(self, context: SchedulingContext) -> Callable[[Request], bool]:
        """The worst-case test, refusing every candidate once the batch is full.

        :meth:`schedule` stops at the first refusal, so a capped consult
        admits the uncapped prefix cut to the free slots.  The batch is fixed
        during a uniform-decode window, so the inherited one-test no-admit
        proof covers a full batch too.
        """
        fits = super()._fit_test(context)
        if self.max_running_requests is None:
            return fits
        slots = self.max_running_requests - len(context.running)

        def fits_capped(candidate: Request) -> bool:
            nonlocal slots
            if slots <= 0 or not fits(candidate):
                return False
            slots -= 1
            return True

        return fits_capped

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        if self.overcommit == 1.0:
            return "conservative (no overcommit)"
        return f"conservative (overcommit={self.overcommit:.0%})"
