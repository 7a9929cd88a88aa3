"""Tests for the sliding-window overload throttle and its simulator wiring."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.schedulers.registry import create_scheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.server import ServingSimulator
from repro.serving.throttle import REASON_THROTTLED, OverloadThrottle
from repro.workloads.arrivals import assign_poisson_arrivals
from repro.workloads.spec import RequestSpec, Workload
from repro.workloads.tenants import assign_tenants, generate_tenant_population
from tests.conftest import TINY_CAPACITY, make_spec, make_workload


def tenant_spec(request_id: str, user_id: str | None = None):
    return replace(make_spec(request_id=request_id), user_id=user_id)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError, match="user_rpm"):
            OverloadThrottle(user_rpm=0)

    def test_repr(self):
        assert "user<=10" in repr(OverloadThrottle(user_rpm=10))
        assert "disabled" in repr(OverloadThrottle())


class TestSlidingWindow:
    def test_limit_reached_within_window(self):
        throttle = OverloadThrottle(user_rpm=2)
        spec = tenant_spec("r", user_id="alice")
        assert throttle.check(spec, 0.0) is None
        assert throttle.check(spec, 1.0) is None
        assert throttle.check(spec, 2.0) == REASON_THROTTLED

    def test_window_boundary_is_half_open(self):
        # Entries at time t leave the window exactly at t + WINDOW_SECONDS:
        # (now - window, now] keeps strictly newer entries only.
        throttle = OverloadThrottle(user_rpm=1)
        spec = tenant_spec("r", user_id="alice")
        assert throttle.check(spec, 0.0) is None
        assert throttle.check(spec, 59.999) == REASON_THROTTLED
        assert throttle.check(spec, 60.0) is None

    def test_rejected_arrivals_are_not_recorded(self):
        # A throttled burst must not extend its own punishment: after the
        # first admit at t=0 falls out of the window, the tenant is clean
        # no matter how many rejects happened meanwhile.
        throttle = OverloadThrottle(user_rpm=1)
        spec = tenant_spec("r", user_id="alice")
        assert throttle.check(spec, 0.0) is None
        for t in (10.0, 30.0, 50.0, 59.0):
            assert throttle.check(spec, t) == REASON_THROTTLED
        assert throttle.check(spec, 60.5) is None

    def test_windows_are_per_user(self):
        throttle = OverloadThrottle(user_rpm=1)
        assert throttle.check(tenant_spec("a", user_id="alice"), 0.0) is None
        assert throttle.check(tenant_spec("b", user_id="bob"), 0.0) is None
        assert throttle.check(tenant_spec("a2", user_id="alice"), 1.0) == REASON_THROTTLED

    def test_tenantless_requests_pass_through(self):
        throttle = OverloadThrottle(user_rpm=1)
        for t in range(5):
            assert throttle.check(make_spec(request_id=f"r{t}"), float(t)) is None

    def test_reset_forgets_window_state(self):
        throttle = OverloadThrottle(user_rpm=1)
        spec = tenant_spec("r", user_id="alice")
        assert throttle.check(spec, 0.0) is None
        assert throttle.check(spec, 1.0) == REASON_THROTTLED
        throttle.reset()
        assert throttle.check(spec, 1.0) is None


def throttled_workload(num_requests: int = 60, rate: float = 50.0) -> Workload:
    population = generate_tenant_population(
        4, num_apps=2, abusive_users=1, abusive_share=0.7
    )
    workload = assign_tenants(
        make_workload(num_requests=num_requests), population, seed=3
    )
    return assign_poisson_arrivals(workload, request_rate=rate, seed=5)


class TestServingSimulatorIntegration:
    def test_throttled_run_conserves_requests(self, platform_7b):
        simulator = ServingSimulator(
            platform_7b,
            create_scheduler("aggressive", watermark=0.9),
            token_capacity_override=TINY_CAPACITY,
            throttle=OverloadThrottle(user_rpm=15),
        )
        workload = throttled_workload()
        result = simulator.run_open_loop(workload)
        assert result.completed
        assert result.rejected
        assert len(result.requests) + len(result.rejected) == len(workload.requests)
        assert result.reject_reasons == {REASON_THROTTLED: len(result.rejected)}
        # Only the abusive user exceeds 15 requests inside the burst window.
        assert {r.spec.user_id for r in result.rejected} == {"user-0000"}

    def test_no_throttle_means_no_rejects(self, platform_7b):
        simulator = ServingSimulator(
            platform_7b,
            create_scheduler("aggressive", watermark=0.9),
            token_capacity_override=TINY_CAPACITY,
        )
        result = simulator.run_open_loop(throttled_workload())
        assert result.completed
        assert result.rejected == []
        assert result.reject_reasons == {}

    def test_closed_loop_releases_throttled_client_slots(self, platform_7b):
        # Closed-loop clients whose arrival is throttled must get their slot
        # back, or the run deadlocks waiting for requests that never finish.
        simulator = ServingSimulator(
            platform_7b,
            create_scheduler("aggressive", watermark=0.9),
            token_capacity_override=TINY_CAPACITY,
            throttle=OverloadThrottle(user_rpm=5),
        )
        population = generate_tenant_population(2, abusive_users=1, abusive_share=0.9)
        workload = assign_tenants(make_workload(num_requests=40), population, seed=7)
        result = simulator.run_closed_loop(workload, num_clients=4)
        assert result.completed
        assert result.rejected
        assert len(result.requests) + len(result.rejected) == 40

    def test_fairness_summary_includes_rejects(self, platform_7b):
        from repro.serving.sla import SLASpec

        simulator = ServingSimulator(
            platform_7b,
            create_scheduler("vtc", watermark=0.9),
            token_capacity_override=TINY_CAPACITY,
            throttle=OverloadThrottle(user_rpm=15),
        )
        result = simulator.run_open_loop(throttled_workload())
        summary = result.fairness_summary(SLASpec(ttft_limit=10.0, mtpot_limit=1.5))
        assert summary.per_tenant["user-0000"].rejected_requests == len(result.rejected)


def rule_spec(request_id: str, user_id: str | None, prompt: int = 200, arrival: float | None = None):
    return RequestSpec(
        request_id=request_id,
        input_length=prompt,
        output_length=20,
        max_new_tokens=20,
        arrival_time=arrival,
        user_id=user_id,
    )


class TestArrivalRules:
    """The single event loop's two rules for throttled and in-step arrivals."""

    def simulator(self, platform_7b) -> ServingSimulator:
        return ServingSimulator(
            platform_7b, create_scheduler("aggressive"), throttle=OverloadThrottle(user_rpm=1)
        )

    def test_released_slot_arrival_joins_the_current_iteration(self, platform_7b):
        # r2 is throttled at t=0 and its client's slot is released at once;
        # with no think time r3 arrives at t=0, before the first iteration,
        # so it is admitted together with r1.
        workload = Workload(
            name="release",
            requests=[rule_spec("r1", "u-a"), rule_spec("r2", "u-a"), rule_spec("r3", "u-b")],
        )
        result = self.simulator(platform_7b).run_closed_loop(workload, num_clients=2)
        assert [r.request_id for r in result.rejected] == ["r2"]
        served = {r.request_id: r for r in result.requests}
        assert served["r1"].first_token_time == served["r3"].first_token_time

    def test_throttle_window_is_checked_at_the_arrival_time(self, platform_7b):
        # The 8,000-token prefill starting at 59.99 s runs past 60 s.  r2
        # arrives during it, 59.999 s after r1, so r1 is still inside r2's
        # 60 s window even though the step ends after the window closes.
        workload = Workload(
            name="window",
            requests=[
                rule_spec("r1", "u-a", arrival=0.0),
                rule_spec("long", None, prompt=8_000, arrival=59.99),
                rule_spec("r2", "u-a", arrival=59.999),
            ],
        )
        result = self.simulator(platform_7b).run_open_loop(workload)
        served = {r.request_id: r for r in result.requests}
        assert served["long"].first_token_time > 60.0
        assert [r.request_id for r in result.rejected] == ["r2"]


class TestClusterSimulatorIntegration:
    def test_throttled_cluster_conserves_requests(self, platform_7b):
        workload = throttled_workload()
        simulator = ClusterSimulator(
            platform=platform_7b,
            num_replicas=2,
            router="round-robin",
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.9},
            token_capacity_override=4096,
            throttle=OverloadThrottle(user_rpm=15),
        )
        result = simulator.run_open_loop(workload)
        assert result.completed
        assert result.rejected
        assert len(result.requests) + len(result.rejected) == len(workload.requests)
        assert result.reject_reasons[REASON_THROTTLED] == len(result.rejected)
        assert {r.spec.user_id for r in result.rejected} == {"user-0000"}

    def test_cluster_without_throttle_unchanged(self, platform_7b):
        workload = throttled_workload()
        simulator = ClusterSimulator(
            platform=platform_7b,
            num_replicas=2,
            router="round-robin",
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.9},
            token_capacity_override=4096,
        )
        result = simulator.run_open_loop(workload)
        assert result.completed
        assert REASON_THROTTLED not in result.reject_reasons


class TestSnapshotKeys:
    def test_run_snapshot_omits_reject_keys_when_clean(self, platform_7b):
        # The perf fingerprints committed before the throttle existed must
        # stay byte-identical: the snapshot only grows keys on rejecting runs.
        from repro.analysis.perf import run_snapshot

        simulator = ServingSimulator(
            platform_7b,
            create_scheduler("aggressive", watermark=0.9),
            token_capacity_override=TINY_CAPACITY,
        )
        clean = run_snapshot(simulator.run_open_loop(throttled_workload()))
        assert "rejected" not in clean
        assert "reject_reasons" not in clean

    def test_run_snapshot_includes_reject_keys_when_throttled(self, platform_7b):
        from repro.analysis.perf import run_snapshot

        simulator = ServingSimulator(
            platform_7b,
            create_scheduler("aggressive", watermark=0.9),
            token_capacity_override=TINY_CAPACITY,
            throttle=OverloadThrottle(user_rpm=15),
        )
        snapshot = run_snapshot(simulator.run_open_loop(throttled_workload()))
        assert snapshot["rejected"]
        assert snapshot["reject_reasons"] == {REASON_THROTTLED: len(snapshot["rejected"])}
