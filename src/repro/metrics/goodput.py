"""Throughput and goodput computation.

*Throughput* is the rate of generated output tokens regardless of latency.
*Goodput* (the paper's headline metric) counts only the output tokens of
requests that satisfied the SLA — a run that generates many tokens but stalls
individual requests past the MTPOT bound gets little credit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.engine.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving imports metrics)
    from repro.serving.sla import SLASpec


@dataclass(frozen=True)
class ThroughputSummary:
    """Token-rate summary of one serving run."""

    duration: float
    total_output_tokens: int
    compliant_output_tokens: int
    finished_requests: int
    compliant_requests: int

    @property
    def throughput(self) -> float:
        """Output tokens per second, ignoring SLA compliance."""
        if self.duration <= 0:
            return 0.0
        return self.total_output_tokens / self.duration

    @property
    def goodput(self) -> float:
        """Output tokens per second from SLA-compliant requests only."""
        if self.duration <= 0:
            return 0.0
        return self.compliant_output_tokens / self.duration

    @property
    def compliance_rate(self) -> float:
        """Fraction of finished requests that met the SLA."""
        if self.finished_requests == 0:
            return 0.0
        return self.compliant_requests / self.finished_requests


def summarize_throughput(
    requests: Sequence[Request],
    duration: float,
    sla: "SLASpec",
) -> ThroughputSummary:
    """Compute throughput and goodput for a completed run.

    Args:
        requests: every request the run produced (finished or not).
        duration: wall-clock length of the measurement window (seconds).
        sla: the SLA used to decide which requests count toward goodput.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    finished = [r for r in requests if r.is_finished]
    compliant = [r for r in finished if sla.request_compliant(r)]
    return ThroughputSummary(
        duration=duration,
        total_output_tokens=sum(r.generated_tokens for r in finished),
        compliant_output_tokens=sum(r.generated_tokens for r in compliant),
        finished_requests=len(finished),
        compliant_requests=len(compliant),
    )


def summarize_throughput_by_class(
    requests: Sequence[Request],
    duration: float,
    sla: "SLASpec",
) -> dict[str, ThroughputSummary]:
    """Per-SLA-class throughput/goodput summaries for a completed run.

    Requests are grouped by :attr:`~repro.workloads.spec.RequestSpec.sla_class`
    and each group is summarised over the *same* measurement window, so class
    goodputs add up to the fleet goodput.  Compliance uses each class's own
    deadlines via :meth:`SLASpec.request_compliant`.  Keys are sorted for
    deterministic iteration.
    """
    by_class: dict[str, list[Request]] = {}
    for request in requests:
        by_class.setdefault(request.spec.sla_class, []).append(request)
    return {
        name: summarize_throughput(by_class[name], duration, sla)
        for name in sorted(by_class)
    }


def evicted_request_fraction(requests: Sequence[Request]) -> float:
    """Ratio of total evictions to total requests, as reported in Table 1.

    The paper's "Evicted Reqs" column divides the *number of request
    evictions* by the number of requests, so values above 100% mean the
    average request was evicted more than once.  An empty run scores 0.
    """
    if not requests:
        return 0.0
    return sum(r.eviction_count for r in requests) / len(requests)
