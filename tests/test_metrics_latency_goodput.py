"""Tests for latency summaries and throughput/goodput computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.request import Request
from repro.metrics.goodput import (
    evicted_request_fraction,
    summarize_throughput,
)
from repro.metrics.latency import (
    LatencySummary,
    finished_requests,
    mtpots,
    percentile,
    summarize_latency,
    ttfts,
)
from repro.serving.sla import SLASpec
from tests.conftest import make_spec
from tests.helpers import deliver


def finished(arrival: float, token_times: list[float], evictions: int = 0) -> Request:
    request = Request(
        spec=make_spec(
            request_id=f"r-{arrival}-{len(token_times)}-{evictions}",
            output_length=len(token_times),
            max_new_tokens=len(token_times) + 1,
        ),
        arrival_time=arrival,
    )
    request.admit(arrival)
    request.note_prefill(request.prompt_tokens)
    deliver(request, token_times)
    request.finish(token_times[-1])
    request.eviction_count = evictions
    return request


class TestLatencyHelpers:
    def test_finished_requests_filters_unfinished(self):
        done = finished(0.0, [1.0, 2.0])
        pending = Request(spec=make_spec(request_id="pending"), arrival_time=0.0)
        assert finished_requests([done, pending]) == [done]

    def test_ttfts_and_mtpots(self):
        requests = [finished(0.0, [1.0, 1.5]), finished(1.0, [4.0, 4.2])]
        np.testing.assert_allclose(ttfts(requests), [1.0, 3.0])
        np.testing.assert_allclose(mtpots(requests), [0.5, 0.2])

    def test_percentile_of_empty_is_zero(self):
        assert percentile(np.array([]), 99) == 0.0

    def test_summarize_latency(self):
        requests = [finished(0.0, [1.0, 2.0, 2.5]), finished(0.0, [2.0, 2.2])]
        summary = summarize_latency(requests)
        assert summary.count == 2
        assert summary.mean_ttft == pytest.approx(1.5)
        assert summary.max_mtpot == pytest.approx(1.0)
        assert summary.p99_ttft <= 2.0

    def test_summarize_latency_empty(self):
        assert summarize_latency([]) == LatencySummary.empty()


class TestThroughputSummary:
    def test_throughput_and_goodput_split(self):
        sla = SLASpec(ttft_limit=2.0, mtpot_limit=1.0)
        good = finished(0.0, [1.0, 1.5, 2.0])             # compliant, 3 tokens
        stalled = finished(0.0, [1.0, 5.0, 5.5])           # MTPOT violation, 3 tokens
        summary = summarize_throughput([good, stalled], duration=10.0, sla=sla)
        assert summary.total_output_tokens == 6
        assert summary.compliant_output_tokens == 3
        assert summary.throughput == pytest.approx(0.6)
        assert summary.goodput == pytest.approx(0.3)
        assert summary.compliance_rate == pytest.approx(0.5)

    def test_zero_duration(self):
        sla = SLASpec(ttft_limit=1, mtpot_limit=1)
        summary = summarize_throughput([], duration=0.0, sla=sla)
        assert summary.throughput == 0.0
        assert summary.goodput == 0.0
        assert summary.compliance_rate == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            summarize_throughput([], duration=-1.0, sla=SLASpec(ttft_limit=1, mtpot_limit=1))

    def test_unfinished_requests_excluded(self):
        sla = SLASpec(ttft_limit=10, mtpot_limit=10)
        pending = Request(spec=make_spec(request_id="pending"), arrival_time=0.0)
        summary = summarize_throughput([pending], duration=1.0, sla=sla)
        assert summary.total_output_tokens == 0


class TestEvictionMetrics:
    def test_evicted_request_fraction(self):
        requests = [finished(0.0, [1.0], evictions=2), finished(0.0, [1.0], evictions=0)]
        assert evicted_request_fraction(requests) == pytest.approx(1.0)

    def test_rate_can_exceed_one(self):
        requests = [finished(0.0, [1.0], evictions=3)]
        assert evicted_request_fraction(requests) == pytest.approx(3.0)

    def test_empty_requests(self):
        assert evicted_request_fraction([]) == 0.0
