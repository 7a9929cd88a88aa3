"""Tests for per-tenant fairness metrics (Jain's index, service summaries)."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.engine.request import Request
from repro.metrics.fairness import (
    jains_index,
    max_min_service_ratio,
    summarize_tenant_fairness,
)
from repro.serving.sla import SLASpec
from tests.conftest import make_spec

SLA = SLASpec(ttft_limit=10.0, mtpot_limit=1.5)


def finished_request(
    request_id: str,
    user_id: str | None = None,
    app_id: str | None = None,
    tokens: int = 4,
    gap: float = 0.1,
) -> Request:
    """A finished request generating ``tokens`` output tokens at ``gap`` cadence."""
    spec = replace(
        make_spec(request_id=request_id, output_length=tokens),
        user_id=user_id,
        app_id=app_id,
    )
    request = Request(spec=spec, arrival_time=0.0)
    request.admit(0.0)
    request.note_prefill(request.recompute_tokens)
    for step in range(tokens):
        request.deliver_token(0.1 + gap * step)
    request.finish(0.1 + gap * (tokens - 1))
    return request


class TestJainsIndex:
    def test_equal_allocation_is_one(self):
        assert jains_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_n(self):
        assert jains_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_known_value(self):
        # (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
        assert jains_index([1.0, 2.0, 3.0]) == pytest.approx(36.0 / 42.0)

    def test_empty_is_one(self):
        assert jains_index([]) == 1.0

    def test_single_tenant_is_one(self):
        assert jains_index([42.0]) == 1.0
        assert jains_index([0.0]) == 1.0

    def test_all_zero_is_one_not_nan(self):
        result = jains_index([0.0, 0.0, 0.0])
        assert result == 1.0
        assert not math.isnan(result)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            jains_index([1.0, -0.1])

    def test_scale_invariant(self):
        assert jains_index([1.0, 2.0, 4.0]) == pytest.approx(
            jains_index([100.0, 200.0, 400.0])
        )


class TestMaxMinServiceRatio:
    def test_equal_is_one(self):
        assert max_min_service_ratio([3.0, 3.0]) == 1.0

    def test_known_ratio(self):
        assert max_min_service_ratio([2.0, 8.0]) == pytest.approx(4.0)

    def test_starvation_is_inf(self):
        assert math.isinf(max_min_service_ratio([5.0, 0.0]))

    def test_degenerate_cases_are_one(self):
        assert max_min_service_ratio([]) == 1.0
        assert max_min_service_ratio([7.0]) == 1.0
        assert max_min_service_ratio([0.0, 0.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            max_min_service_ratio([-1.0])


class TestSummarizeTenantFairness:
    def test_groups_by_user(self):
        requests = [
            finished_request("a", user_id="alice", tokens=4),
            finished_request("b", user_id="alice", tokens=4),
            finished_request("c", user_id="bob", tokens=8),
        ]
        summary = summarize_tenant_fairness(requests, duration=10.0, sla=SLA)
        assert summary.group_by == "user"
        assert summary.num_tenants == 2
        assert summary.per_tenant["alice"].served_tokens == 8
        assert summary.per_tenant["bob"].served_tokens == 8
        assert summary.jain_served_tokens == pytest.approx(1.0)

    def test_groups_by_app(self):
        requests = [
            finished_request("a", user_id="alice", app_id="chat"),
            finished_request("b", user_id="bob", app_id="chat"),
            finished_request("c", user_id="carol", app_id="search"),
        ]
        summary = summarize_tenant_fairness(
            requests, duration=10.0, sla=SLA, group_by="app"
        )
        assert summary.group_by == "app"
        assert sorted(summary.per_tenant) == ["chat", "search"]
        assert summary.per_tenant["chat"].finished_requests == 2

    def test_invalid_group_by_rejected(self):
        with pytest.raises(ValueError, match="group_by"):
            summarize_tenant_fairness([], duration=1.0, sla=SLA, group_by="nope")

    def test_tenantless_requests_excluded(self):
        requests = [
            finished_request("a", user_id="alice"),
            finished_request("b", user_id=None),
        ]
        summary = summarize_tenant_fairness(requests, duration=10.0, sla=SLA)
        assert summary.num_tenants == 1
        empty = summarize_tenant_fairness(
            [finished_request("c")], duration=10.0, sla=SLA
        )
        assert empty.num_tenants == 0
        assert empty.jain_goodput == 1.0

    def test_rejected_requests_count_as_submitted(self):
        served = [finished_request("a", user_id="alice")]
        rejected = [
            Request(
                spec=replace(make_spec(request_id="r"), user_id="bob"),
                arrival_time=0.0,
            )
        ]
        summary = summarize_tenant_fairness(
            served, duration=10.0, sla=SLA, rejected=rejected
        )
        assert summary.per_tenant["bob"].submitted_requests == 1
        assert summary.per_tenant["bob"].rejected_requests == 1
        assert summary.per_tenant["bob"].served_tokens == 0
        assert math.isinf(summary.service_ratio)

    def test_noncompliant_tokens_not_goodput(self):
        # A 2 s inter-token stall breaks the 1.5 s MTPOT bound.
        slow = finished_request("slow", user_id="alice", gap=2.0)
        fast = finished_request("fast", user_id="bob")
        summary = summarize_tenant_fairness([slow, fast], duration=10.0, sla=SLA)
        assert summary.per_tenant["alice"].compliant_tokens == 0
        assert summary.per_tenant["alice"].served_tokens > 0
        assert summary.per_tenant["bob"].compliant_tokens > 0
        assert summary.per_tenant["bob"].goodput == pytest.approx(
            summary.per_tenant["bob"].compliant_tokens / 10.0
        )

    def test_zero_duration_has_zero_goodput(self):
        summary = summarize_tenant_fairness(
            [finished_request("a", user_id="alice")], duration=0.0, sla=SLA
        )
        assert summary.per_tenant["alice"].goodput == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            summarize_tenant_fairness([], duration=-1.0, sla=SLA)

    def test_as_row_reports_inf_ratio(self):
        served = [finished_request("a", user_id="alice")]
        rejected = [
            Request(
                spec=replace(make_spec(request_id="r"), user_id="bob"),
                arrival_time=0.0,
            )
        ]
        row = summarize_tenant_fairness(
            served, duration=10.0, sla=SLA, rejected=rejected
        ).as_row()
        assert row["service_ratio"] == "inf"
        assert row["tenants"] == 2
