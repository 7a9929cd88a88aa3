"""Run-level memory and eviction summaries (Table 1 / Figure 1 quantities)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine.engine import EngineStats
from repro.engine.request import Request
from repro.memory.pool_stats import MemoryTimeline
from repro.metrics.goodput import evicted_request_fraction


@dataclass(frozen=True)
class MemoryReport:
    """The four Table-1 columns for one (scheduler, workload) run."""

    scheduler: str
    workload: str
    decoding_steps: int
    consumed_memory_fraction: float
    future_required_fraction: float
    evicted_request_fraction: float


def build_memory_report(
    scheduler: str,
    workload: str,
    stats: EngineStats,
    timeline: MemoryTimeline,
    requests: Sequence[Request],
) -> MemoryReport:
    """Assemble the Table-1 quantities from a finished run."""
    return MemoryReport(
        scheduler=scheduler,
        workload=workload,
        decoding_steps=stats.decoding_steps,
        consumed_memory_fraction=timeline.average_consumed_fraction,
        future_required_fraction=timeline.average_future_required_fraction,
        evicted_request_fraction=evicted_request_fraction(requests),
    )
