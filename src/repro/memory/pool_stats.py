"""Time-series accounting of KV-cache pool occupancy.

The ablation study of the paper (Table 1, Figure 1) reports two memory
quantities sampled over the run:

* **current consumed memory** — the fraction of the pool actually occupied at
  each decode step, and
* **future required memory** — the peak memory the *currently admitted* batch
  will need before it finishes (this can exceed 100% for aggressive admission).

:class:`MemoryTimeline` keeps one row per engine iteration, stored as five
parallel columns (row ``i`` is iteration ``i + 1``), and produces the averages
reported in the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean


@dataclass
class MemoryTimeline:
    """Per-iteration pool state as columns, and its summaries."""

    token_capacity: int
    times: list[float] = field(default_factory=list)
    used_tokens: list[int] = field(default_factory=list)
    future_required_tokens: list[int] = field(default_factory=list)
    running_requests: list[int] = field(default_factory=list)
    queued_requests: list[int] = field(default_factory=list)

    def record(
        self,
        time: float,
        used_tokens: int,
        future_required_tokens: int,
        running_requests: int,
        queued_requests: int,
    ) -> None:
        """Append one iteration's row."""
        self.times.append(time)
        self.used_tokens.append(used_tokens)
        self.future_required_tokens.append(future_required_tokens)
        self.running_requests.append(running_requests)
        self.queued_requests.append(queued_requests)

    def record_jump(
        self,
        times: list[float],
        first_used_tokens: int,
        used_tokens_per_step: int,
        future_required_tokens: int,
        running_requests: int,
        queued_requests: int,
    ) -> None:
        """Append one row per macro-advanced decode iteration.

        During an event-jump no request finishes and none is admitted, so the
        rows follow in closed form: occupancy grows by ``used_tokens_per_step``
        (one token per resident request, so at least 1) each iteration and the
        batch's future requirement is invariant (every request's remaining
        length shrinks exactly as its context grows).  Produces columns
        identical to ``len(times)`` :meth:`record` calls.
        """
        n = len(times)
        per = used_tokens_per_step
        self.times.extend(times)
        self.used_tokens.extend(range(first_used_tokens + per, first_used_tokens + per * (n + 1), per))
        self.future_required_tokens.extend([future_required_tokens] * n)
        self.running_requests.extend([running_requests] * n)
        self.queued_requests.extend([queued_requests] * n)

    def __len__(self) -> int:
        return len(self.times)

    def _active_mean(self, column: list[int]) -> float:
        """Mean of ``column / capacity`` over rows with a non-empty batch."""
        capacity = self.token_capacity
        active = [value / capacity for value, running in zip(column, self.running_requests) if running > 0]
        return mean(active) if active else 0.0

    @property
    def average_consumed_fraction(self) -> float:
        """Mean of used_tokens / capacity over steps with a non-empty batch."""
        return self._active_mean(self.used_tokens)

    @property
    def average_future_required_fraction(self) -> float:
        """Mean of future_required_tokens / capacity over active steps."""
        return self._active_mean(self.future_required_tokens)
