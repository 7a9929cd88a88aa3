"""Tests for fleet-level metrics aggregation."""

from __future__ import annotations

import math

import pytest

from repro.engine.request import Request
from repro.metrics.fleet import (
    FleetSizeSample,
    ReplicaLifetime,
    load_imbalance,
    summarize_fleet,
    total_replica_seconds,
)
from repro.serving.sla import ClassLimits, SLASpec
from tests.conftest import make_spec
from tests.helpers import deliver

SLA = SLASpec(ttft_limit=10.0, mtpot_limit=1.5)


def finished_request(request_id: str, tokens: int = 4, gap: float = 0.1) -> Request:
    """A request that generated ``tokens`` output tokens at a steady cadence."""
    request = Request(spec=make_spec(request_id=request_id, output_length=tokens), arrival_time=0.0)
    request.admit(0.0)
    request.note_prefill(request.recompute_tokens)
    deliver(request, [0.1 + gap * step for step in range(tokens)])
    request.finish(0.1 + gap * (tokens - 1))
    return request


class TestLoadImbalance:
    def test_balanced_fleet_is_zero(self):
        assert load_imbalance([10.0, 10.0, 10.0, 10.0]) == 0.0

    def test_idle_fleet_is_zero(self):
        assert load_imbalance([0.0, 0.0]) == 0.0
        assert load_imbalance([]) == 0.0

    def test_known_coefficient_of_variation(self):
        # loads (2, 4): mean 3, std 1 -> CV = 1/3.
        assert load_imbalance([2.0, 4.0]) == pytest.approx(1.0 / 3.0)

    def test_skew_raises_imbalance(self):
        assert load_imbalance([1.0, 1.0, 18.0]) > load_imbalance([5.0, 7.0, 8.0])

    def test_single_replica_fleet_is_zero(self):
        # Regression: a one-replica fleet has nothing to be imbalanced
        # against and must return exactly 0.0, loaded or idle.
        assert load_imbalance([42.0]) == 0.0
        assert load_imbalance([0.0]) == 0.0

    def test_all_zero_loads_are_zero_not_nan(self):
        result = load_imbalance([0.0, 0.0, 0.0, 0.0])
        assert result == 0.0
        assert not math.isnan(result)

    def test_non_finite_mean_is_zero(self):
        assert load_imbalance([float("nan"), 1.0]) == 0.0
        assert load_imbalance([float("inf"), 1.0]) == 0.0


class TestSummarizeFleet:
    def test_counts_and_tokens(self):
        per_replica = [
            [finished_request("a", tokens=4), finished_request("b", tokens=4)],
            [finished_request("c", tokens=8)],
        ]
        summary = summarize_fleet(per_replica, duration=10.0, sla=SLA, rejected=3)
        assert summary.num_replicas == 2
        assert summary.submitted_requests == 6
        assert summary.rejected_requests == 3
        assert summary.finished_requests == 3
        assert summary.total_output_tokens == 16
        assert summary.throughput == pytest.approx(1.6)

    def test_goodput_counts_only_compliant(self):
        # One request with a 2 s inter-token stall breaks the 1.5 s MTPOT SLA.
        per_replica = [
            [finished_request("ok", tokens=4)],
            [finished_request("stalled", tokens=4, gap=2.0)],
        ]
        summary = summarize_fleet(per_replica, duration=10.0, sla=SLA)
        assert summary.goodput == pytest.approx(0.4)
        assert summary.throughput == pytest.approx(0.8)
        assert summary.sla_attainment == pytest.approx(0.5)

    def test_latency_percentiles_cover_all_replicas(self):
        per_replica = [
            [finished_request("fast", tokens=4, gap=0.05)],
            [finished_request("slow", tokens=4, gap=0.4)],
        ]
        summary = summarize_fleet(per_replica, duration=5.0, sla=SLA)
        assert summary.p99_tpot > summary.p50_tpot
        assert summary.p50_ttft == pytest.approx(0.1)

    def test_imbalance_from_finished_tokens(self):
        per_replica = [
            [finished_request("a", tokens=2)],
            [finished_request("b", tokens=6)],
        ]
        summary = summarize_fleet(per_replica, duration=5.0, sla=SLA)
        assert summary.load_imbalance == pytest.approx(0.5)

    def test_empty_fleet(self):
        summary = summarize_fleet([[], []], duration=0.0, sla=SLA)
        assert summary.finished_requests == 0
        assert summary.goodput == 0.0
        assert summary.load_imbalance == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            summarize_fleet([[]], duration=-1.0, sla=SLA)

    def test_as_row_is_render_table_ready(self):
        summary = summarize_fleet([[finished_request("a")]], duration=1.0, sla=SLA)
        row = summary.as_row()
        assert set(row) == {
            "replicas",
            "goodput_tok_s",
            "goodput_per_rs",
            "replica_s",
            "throughput_tok_s",
            "sla_attainment",
            "p99_ttft_s",
            "p99_tpot_s",
            "imbalance_cv",
            "rejected",
        }

    def test_replica_seconds_default_is_static_fleet(self):
        summary = summarize_fleet([[finished_request("a")], []], duration=5.0, sla=SLA)
        assert summary.replica_seconds == pytest.approx(10.0)
        assert summary.avg_fleet_size == pytest.approx(2.0)
        # goodput-per-replica-second = compliant tokens / replica-seconds.
        assert summary.goodput_per_replica_second == pytest.approx(
            summary.goodput * summary.duration / summary.replica_seconds
        )

    def test_explicit_replica_seconds_flow_through(self):
        summary = summarize_fleet(
            [[finished_request("a")], []], duration=5.0, sla=SLA, replica_seconds=6.0
        )
        assert summary.replica_seconds == pytest.approx(6.0)
        assert summary.avg_fleet_size == pytest.approx(1.2)


class TestReplicaLifetime:
    def test_seconds_until_run_end_when_alive(self):
        life = ReplicaLifetime(replica_id=0, launched_at=1.0, ready_at=2.0)
        assert life.seconds(end_time=10.0) == pytest.approx(9.0)

    def test_seconds_until_retirement(self):
        life = ReplicaLifetime(replica_id=0, launched_at=1.0, ready_at=2.0, retired_at=4.0)
        assert life.seconds(end_time=10.0) == pytest.approx(3.0)

    def test_warming_past_run_end_accrues_nothing(self):
        # A replica launched near the end may still be warming at makespan.
        life = ReplicaLifetime(replica_id=0, launched_at=8.0, ready_at=11.0)
        assert life.seconds(end_time=5.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="ready_at"):
            ReplicaLifetime(replica_id=0, launched_at=2.0, ready_at=1.0)
        with pytest.raises(ValueError, match="retired_at"):
            ReplicaLifetime(replica_id=0, launched_at=2.0, ready_at=2.0, retired_at=1.0)

    def test_total_replica_seconds(self):
        lifetimes = [
            ReplicaLifetime(replica_id=0, launched_at=0.0, ready_at=0.0),
            ReplicaLifetime(replica_id=1, launched_at=0.0, ready_at=0.0, retired_at=4.0),
        ]
        assert total_replica_seconds(lifetimes, end_time=10.0) == pytest.approx(14.0)


class TestFleetSizeSample:
    def test_provisioned_counts_active_and_warming(self):
        sample = FleetSizeSample(time=1.0, active=3, warming=2, draining=1)
        assert sample.provisioned == 5


class TestPerClassAccounting:
    def make_class_request(self, request_id: str, sla_class: str, tokens: int = 4, gap: float = 0.1) -> Request:
        spec = make_spec(request_id=request_id, output_length=tokens, sla_class=sla_class)
        request = Request(spec=spec, arrival_time=0.0)
        request.admit(0.0)
        request.note_prefill(request.recompute_tokens)
        deliver(request, [0.1 + gap * step for step in range(tokens)])
        request.finish(0.1 + gap * (tokens - 1))
        return request

    def test_class_slices_partition_the_fleet(self):
        requests = [
            self.make_class_request("i0", "interactive"),
            self.make_class_request("i1", "interactive"),
            self.make_class_request("b0", "batch", tokens=8),
        ]
        summary = summarize_fleet([requests], duration=2.0, sla=SLA)
        assert set(summary.per_class) == {"batch", "interactive"}
        interactive = summary.per_class["interactive"]
        batch = summary.per_class["batch"]
        assert interactive.finished_requests == 2
        assert batch.finished_requests == 1
        assert interactive.total_output_tokens == 8
        assert batch.total_output_tokens == 8
        # Class slices add up to the fleet-level numbers.
        assert interactive.goodput + batch.goodput == pytest.approx(summary.goodput)

    def test_per_class_goodput_per_replica_second_shares_fleet_cost(self):
        requests = [
            self.make_class_request("i0", "interactive"),
            self.make_class_request("b0", "batch"),
        ]
        summary = summarize_fleet([requests, []], duration=2.0, sla=SLA, replica_seconds=8.0)
        for slice_summary in summary.per_class.values():
            assert slice_summary.goodput_per_replica_second == pytest.approx(
                slice_summary.goodput * 2.0 / 8.0
            )
        total = sum(s.goodput_per_replica_second for s in summary.per_class.values())
        assert total == pytest.approx(summary.goodput_per_replica_second)

    def test_rejected_requests_attributed_to_their_class(self):
        served = [self.make_class_request("i0", "interactive")]
        rejected = [
            Request(spec=make_spec(request_id="rb", sla_class="batch"), arrival_time=0.0),
            Request(spec=make_spec(request_id="ri", sla_class="interactive"), arrival_time=0.0),
            Request(spec=make_spec(request_id="rb2", sla_class="batch"), arrival_time=0.0),
        ]
        summary = summarize_fleet([served], duration=1.0, sla=SLA, rejected=rejected)
        assert summary.rejected_requests == 3
        assert summary.submitted_requests == 4
        assert summary.per_class["batch"].rejected_requests == 2
        assert summary.per_class["interactive"].rejected_requests == 1
        # A class present only through rejections still gets a (zeroed) slice.
        assert summary.per_class["batch"].finished_requests == 0
        assert summary.per_class["batch"].goodput == 0.0

    def test_rejected_count_still_accepted_for_compat(self):
        served = [self.make_class_request("i0", "interactive")]
        summary = summarize_fleet([served], duration=1.0, sla=SLA, rejected=5)
        assert summary.rejected_requests == 5
        assert summary.submitted_requests == 6
        assert summary.per_class["interactive"].rejected_requests == 0

    def test_class_deadlines_decide_class_compliance(self):
        batch = ClassLimits(ttft_limit=0.05, mtpot_limit=1.5)
        sla = SLASpec(ttft_limit=10.0, mtpot_limit=1.5, class_limits={"batch": batch})
        requests = [
            self.make_class_request("i0", "interactive"),  # TTFT 0.1 < 10
            self.make_class_request("b0", "batch"),        # TTFT 0.1 > 0.05
        ]
        summary = summarize_fleet([requests], duration=1.0, sla=sla)
        assert summary.per_class["interactive"].sla_attainment == 1.0
        assert summary.per_class["batch"].sla_attainment == 0.0
        assert summary.per_class["batch"].goodput == 0.0

    def test_class_rows_sorted_and_renderable(self):
        requests = [
            self.make_class_request("i0", "interactive"),
            self.make_class_request("b0", "batch"),
        ]
        summary = summarize_fleet([requests], duration=1.0, sla=SLA)
        rows = summary.class_rows()
        assert [row["class"] for row in rows] == ["batch", "interactive"]
        assert all("goodput_per_rs" in row for row in rows)
