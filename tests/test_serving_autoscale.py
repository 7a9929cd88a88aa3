"""Tests for the replica autoscaling subsystem (policies, driver, fleet)."""

from __future__ import annotations

import math

import pytest

from repro.obs.tracer import RingTracer
from repro.serving.autoscale import (
    AUTOSCALE_POLICY_REGISTRY,
    Autoscaler,
    AutoscalerPolicy,
    FleetView,
    PredictivePolicy,
    ReactivePolicy,
    StaticPolicy,
    available_autoscale_policies,
    create_autoscale_policy,
)
from repro.serving.cluster import ClusterSimulator, ReplicaState
from repro.serving.routing import ReplicaView, Router
from repro.serving.sla import SLASpec
from repro.workloads.arrivals import assign_bursty_arrivals
from repro.workloads.spec import RequestSpec, Workload
from tests.conftest import UNCAPPED, make_workload
from tests.helpers import deliver

SLA = SLASpec(ttft_limit=10.0, mtpot_limit=1.5)


def idle_snapshot(replica_id: int, capacity: int = 1000) -> ReplicaView:
    return ReplicaView(replica_id=replica_id, token_capacity=capacity, used_tokens=0)


def view(
    time: float = 0.0,
    num_active: int = 2,
    saturation_rate: float = 0.0,
    arrival_rate: float = 0.0,
    mean_arrival_tokens: float = 0.0,
    num_warming: int = 0,
    capacity: int = 1000,
) -> FleetView:
    return FleetView(
        time=time,
        snapshots=tuple(idle_snapshot(i, capacity) for i in range(num_active)),
        num_warming=num_warming,
        saturation_rate=saturation_rate,
        arrival_rate=arrival_rate,
        mean_arrival_tokens=mean_arrival_tokens,
    )


def predictive(horizon: float) -> PredictivePolicy:
    """A full-utilisation predictive policy whose forecast looks ``horizon``
    seconds ahead, bound as an autoscaler with that warm-up binds it."""
    policy = PredictivePolicy(target_utilization=1.0, default_length=100)
    policy.bind_warmup(horizon)
    return policy


class SchedulePolicy(AutoscalerPolicy):
    """Deterministic test policy: target size follows a (time, size) script."""

    name = "schedule"

    def __init__(self, schedule: list[tuple[float, int]]) -> None:
        self.schedule = sorted(schedule)

    def target_size(self, fleet_view: FleetView) -> int:
        size = fleet_view.provisioned
        for threshold, target in self.schedule:
            if fleet_view.time >= threshold:
                size = target
        return size


class FixedRouter(Router):
    """Always returns the same replica id, valid or not."""

    name = "fixed"

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id

    def decide(self, spec, views):
        return self.replica_id


def instant_workload(num_requests: int, prompt: int = 48, output: int = 64) -> Workload:
    """All requests arrive at t=0 (maximum scaling pressure)."""
    specs = [
        RequestSpec(
            request_id=f"a-{i}",
            input_length=prompt,
            output_length=output,
            max_new_tokens=output,
            arrival_time=0.0,
        )
        for i in range(num_requests)
    ]
    return Workload(name="autoscale-test", requests=specs)


def make_cluster(platform_7b, autoscaler=None, num_replicas=3, router="round-robin", **kwargs):
    return ClusterSimulator(
        platform=platform_7b,
        num_replicas=num_replicas,
        router=router,
        scheduler_name="conservative",
        token_capacity_override=2048,
        autoscaler=autoscaler,
        **kwargs,
    )


class TestFleetView:
    def test_counts_and_capacity(self):
        v = view(num_active=3, num_warming=2)
        assert v.num_active == 3
        assert v.provisioned == 5
        assert v.queued_requests == 0
        assert v.replica_capacity == 1000

    def test_empty_fleet_is_safe(self):
        v = FleetView(time=0.0, snapshots=())
        assert v.replica_capacity == 0


class TestStaticPolicy:
    def test_defaults_to_current_size(self):
        policy = StaticPolicy()
        assert policy.target_size(view(num_active=3, num_warming=1)) == 4

    def test_autoscaled_static_fleet_holds_its_size(self, platform_7b):
        # A saturating burst: every decision targets the size the fleet has.
        autoscaler = Autoscaler(StaticPolicy(), interval=0.25, max_replicas=4)
        tracer = RingTracer()
        cluster = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=2, tracer=tracer)
        result = cluster.run_open_loop(instant_workload(18, output=256))
        decisions = [event.attrs for event in tracer.events if event.name == "autoscale.decision"]
        assert decisions
        assert all((d["target"], d["provisioned"]) == (2, 2) for d in decisions)
        assert result.num_replicas == 2
        assert {sample.provisioned for sample in result.fleet_timeline} == {2}


class TestReactivePolicy:
    def test_scales_up_on_saturation(self):
        policy = ReactivePolicy(scale_up_threshold=0.5, cooldown=1.0)
        policy.on_run_start()
        assert policy.target_size(view(time=1.0, num_active=2, saturation_rate=0.8)) == 3

    def test_scales_down_when_idle(self):
        policy = ReactivePolicy(scale_down_threshold=0.05, cooldown=1.0)
        policy.on_run_start()
        assert policy.target_size(view(time=1.0, num_active=3, saturation_rate=0.0)) == 2

    def test_holds_inside_hysteresis_band(self):
        policy = ReactivePolicy(scale_up_threshold=0.5, scale_down_threshold=0.05)
        policy.on_run_start()
        assert policy.target_size(view(time=1.0, num_active=2, saturation_rate=0.3)) == 2

    def test_cooldown_blocks_consecutive_actions(self):
        policy = ReactivePolicy(scale_up_threshold=0.5, cooldown=5.0)
        policy.on_run_start()
        assert policy.target_size(view(time=1.0, num_active=2, saturation_rate=1.0)) == 3
        # Saturation persists, but the cooldown has not elapsed.
        assert policy.target_size(view(time=3.0, num_active=3, saturation_rate=1.0)) == 3
        assert policy.target_size(view(time=6.5, num_active=3, saturation_rate=1.0)) == 4

    def test_queued_work_blocks_scale_down(self):
        policy = ReactivePolicy(scale_down_threshold=0.05, cooldown=0.0)
        policy.on_run_start()
        queued = FleetView(
            time=1.0,
            snapshots=(
                ReplicaView(
                    replica_id=0,
                    token_capacity=1000,
                    used_tokens=0,
                    current_tokens=(10,),
                    generated_tokens=(0,),
                    remaining_cap_tokens=(UNCAPPED,),
                ),
            ),
            saturation_rate=0.0,
        )
        assert policy.target_size(queued) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="thresholds"):
            ReactivePolicy(scale_up_threshold=0.2, scale_down_threshold=0.5)
        # A NaN cooldown never elapses, which freezes the fleet after one action.
        for cooldown in (math.nan, math.inf):
            with pytest.raises(ValueError, match="cooldown"):
                ReactivePolicy(cooldown=cooldown)


class TestPredictivePolicy:
    def test_scales_up_from_arrival_forecast(self):
        # Empty history -> expected output = default_length (100).  Forecast:
        # 10 req/s * 1 s horizon * (50 + 100) tokens = 1500 tokens, which
        # needs two 1000-token replicas at full utilisation.
        policy = predictive(horizon=1.0)
        policy.on_run_start()
        v = view(time=1.0, num_active=1, arrival_rate=10.0, mean_arrival_tokens=50.0)
        assert policy.predicted_fleet_demand_tokens(v) == pytest.approx(1500.0)
        assert policy.target_size(v) == 2

    def test_resident_demand_counts_queued_prompts(self):
        policy = PredictivePolicy(target_utilization=1.0, default_length=100)
        policy.on_run_start()
        loaded = FleetView(
            time=1.0,
            snapshots=(
                ReplicaView(
                    replica_id=0,
                    token_capacity=1000,
                    used_tokens=900,
                    current_tokens=(900, 800, 800),
                    generated_tokens=(10, 0, 0),
                    remaining_cap_tokens=(UNCAPPED,) * 3,
                    num_running=1,
                ),
            ),
        )
        # The queued burst makes demand exceed one replica before saturation.
        assert policy.predicted_fleet_demand_tokens(loaded) > 1000
        assert policy.target_size(loaded) >= 2

    def test_scale_down_is_stepwise_with_cooldown(self):
        policy = PredictivePolicy(target_utilization=1.0, default_length=100, scale_down_cooldown=5.0)
        policy.on_run_start()
        idle = view(time=1.0, num_active=4)
        assert policy.target_size(idle) == 3  # one step down, not straight to 1
        assert policy.target_size(view(time=2.0, num_active=4)) == 4  # cooldown holds
        assert policy.target_size(view(time=7.0, num_active=4)) == 3

    def test_learns_from_finished_requests(self):
        from repro.engine.request import Request
        from tests.conftest import make_spec

        policy = PredictivePolicy(default_length=1000)
        policy.on_run_start()
        request = Request(spec=make_spec(output_length=4), arrival_time=0.0)
        request.admit(0.0)
        request.note_prefill(request.recompute_tokens)
        deliver(request, [0.1 * (step + 1) for step in range(4)])
        request.finish(0.4)
        policy.on_request_finished(request, 0.4)
        # The window now holds one real (short) observation, not the default.
        assert policy._forecaster.history.mean() == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="target_utilization"):
            PredictivePolicy(target_utilization=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="scale_down_cooldown"):
                PredictivePolicy(scale_down_cooldown=bad)


class TestRegistry:
    def test_create_by_name(self):
        assert isinstance(create_autoscale_policy("static"), StaticPolicy)
        assert isinstance(create_autoscale_policy("reactive"), ReactivePolicy)
        assert isinstance(create_autoscale_policy("predictive"), PredictivePolicy)

    def test_kwargs_forwarded(self):
        policy = create_autoscale_policy("reactive", cooldown=9.0)
        assert policy.cooldown == 9.0

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown autoscale policy"):
            create_autoscale_policy("magic")

    def test_available_names(self):
        assert available_autoscale_policies() == sorted(AUTOSCALE_POLICY_REGISTRY)


class TestAutoscalerDriver:
    def test_clamps_to_bounds(self):
        autoscaler = Autoscaler(SchedulePolicy([(0.0, 99)]), max_replicas=4)
        autoscaler.on_run_start()
        assert autoscaler.evaluate(view(time=1.0, num_active=1)) == 4
        low = Autoscaler(SchedulePolicy([(0.0, 0)]), max_replicas=4)
        low.on_run_start()
        assert low.evaluate(view(time=2.0, num_active=2)) == 1

    def test_decision_cadence_advances(self):
        autoscaler = Autoscaler(SchedulePolicy([(0.0, 1)]), interval=2.0)
        autoscaler.on_run_start()
        assert autoscaler.next_decision_time == 2.0
        autoscaler.evaluate(view(time=2.0, num_active=1))
        assert autoscaler.next_decision_time == 4.0
        # A late evaluation skips past every missed slot.
        autoscaler.evaluate(view(time=9.0, num_active=1))
        assert autoscaler.next_decision_time == 10.0

    def test_arrival_window_statistics(self):
        autoscaler = Autoscaler(SchedulePolicy([(0.0, 1)]), sample_window=2.0)
        autoscaler.on_run_start()
        autoscaler.note_arrival(0.5, 1.0, 100)
        autoscaler.note_arrival(1.0, 0.0, 200)
        # Only 1.5 s have elapsed: the rate divides by the elapsed span, not
        # the nominal 2 s window, so the opening burst is not diluted.
        v = autoscaler.make_view(1.5, [idle_snapshot(0)])
        assert v.saturation_rate == pytest.approx(0.5)
        assert v.arrival_rate == pytest.approx(2 / 1.5)
        assert v.mean_arrival_tokens == pytest.approx(150.0)
        # Past one full window the nominal span applies...
        autoscaler.note_arrival(3.5, 0.0, 100)
        late = autoscaler.make_view(4.0, [idle_snapshot(0)])
        assert late.arrival_rate == pytest.approx(1 / 2.0)
        # ...and samples age out entirely.
        stale = autoscaler.make_view(10.0, [idle_snapshot(0)])
        assert stale.saturation_rate == 0.0
        assert stale.arrival_rate == 0.0

    def test_decisions_recorded(self, platform_7b):
        autoscaler = Autoscaler(SchedulePolicy([(0.0, 3)]), interval=0.5, max_replicas=8)
        tracer = RingTracer()
        make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=2, tracer=tracer).run_open_loop(
            instant_workload(6)
        )
        decision = next(event for event in tracer.events if event.name == "autoscale.decision")
        assert decision.time == 0.5
        attrs = decision.attrs
        assert (attrs["target"], attrs["provisioned"], attrs["active"]) == (3, 2, 2)

    def test_decision_event_counts_draining_replicas(self, platform_7b):
        # The view shows only routable and warming replicas; the event's
        # draining count comes from the cluster, in a fixed key order.
        autoscaler = Autoscaler(
            SchedulePolicy([(0.5, 1)]), interval=0.5, max_replicas=3
        )
        tracer = RingTracer()
        make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=3, tracer=tracer).run_open_loop(
            instant_workload(18, output=512)
        )
        first, second = [e.attrs for e in tracer.events if e.name == "autoscale.decision"][:2]
        assert list(first) == [
            "target",
            "provisioned",
            "active",
            "warming",
            "draining",
            "saturation_rate",
            "arrival_rate",
        ]
        assert (first["target"], first["provisioned"], first["draining"]) == (1, 3, 0)
        assert (second["provisioned"], second["active"], second["draining"]) == (1, 1, 2)

    def test_run_start_resets_cadence_window_and_policy(self):
        # One instance serves runs one after another: nothing of the first
        # run's cadence, traffic window or policy cooldown may leak.
        autoscaler = Autoscaler(ReactivePolicy(cooldown=100.0), interval=2.0, sample_window=10.0)
        autoscaler.on_run_start()
        autoscaler.note_arrival(3.0, 1.0, 100)
        saturated = autoscaler.make_view(4.0, [idle_snapshot(0)])
        assert autoscaler.evaluate(saturated) == 2
        assert autoscaler.next_decision_time == 6.0

        autoscaler.on_run_start()
        assert autoscaler.next_decision_time == 2.0
        fresh = autoscaler.make_view(5.0, [idle_snapshot(0)])
        assert (fresh.saturation_rate, fresh.arrival_rate) == (0.0, 0.0)
        # The cooldown started at t=4 in the first run; after the reset the
        # policy acts at once.
        autoscaler.note_arrival(5.0, 1.0, 100)
        assert autoscaler.evaluate(autoscaler.make_view(5.0, [idle_snapshot(0)])) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            Autoscaler(StaticPolicy(), interval=0.0)
        with pytest.raises(ValueError, match="max_replicas"):
            Autoscaler(StaticPolicy(), max_replicas=0)
        with pytest.raises(ValueError, match="warmup_delay"):
            Autoscaler(StaticPolicy(), warmup_delay=-1.0)
        # A NaN interval never advances the decision cadence, and non-finite
        # warm-up or window lengths overflow a predictive run partway through.
        for setting in ("interval", "warmup_delay", "sample_window"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=setting):
                    Autoscaler(StaticPolicy(), **{setting: bad})

    def test_policy_by_registry_name(self):
        autoscaler = Autoscaler("reactive")
        assert isinstance(autoscaler.policy, ReactivePolicy)

    def test_predictive_adopts_warmup_horizon(self):
        autoscaler = Autoscaler(PredictivePolicy(), warmup_delay=7.0)
        assert "horizon=7s" in autoscaler.policy.describe()


class TestElasticCluster:
    def test_initial_size_must_fit_bounds(self, platform_7b):
        autoscaler = Autoscaler(StaticPolicy(), max_replicas=2)
        with pytest.raises(ValueError, match="bounds"):
            make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=5)

    def test_scale_up_launches_warming_replicas(self, platform_7b):
        autoscaler = Autoscaler(
            SchedulePolicy([(0.0, 3)]), interval=0.5, max_replicas=4, warmup_delay=1.0
        )
        cluster = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=1)
        result = cluster.run_open_loop(instant_workload(12))
        assert result.completed
        assert len(result.finished_requests) == 12
        assert result.num_replicas == 3
        # Replicas launched mid-run warmed up before serving.
        for life in result.lifetimes[1:]:
            assert life.ready_at == pytest.approx(life.launched_at + 1.0)

    def test_warming_replica_receives_no_work(self, platform_7b):
        # A replica that never finishes warming must never be routed to.
        autoscaler = Autoscaler(
            SchedulePolicy([(0.0, 2)]), interval=0.5, max_replicas=2, warmup_delay=1e6
        )
        cluster = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=1)
        result = cluster.run_open_loop(instant_workload(8))
        assert len(result.finished_requests) == 8
        assert result.num_replicas == 2
        assert result.replicas[1].requests == []

    def test_scale_down_drains_without_dropping_work(self, platform_7b):
        # Three replicas each pick up instant-burst work; at t=0.5 the fleet
        # is told to shrink to one.  The drained replicas must finish every
        # resident request before retiring, and nothing may be lost.
        autoscaler = Autoscaler(
            SchedulePolicy([(0.5, 1)]), interval=0.5, max_replicas=3
        )
        cluster = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=3)
        result = cluster.run_open_loop(instant_workload(18))
        assert result.completed
        assert len(result.finished_requests) == 18
        retired = [life for life in result.lifetimes if life.retired_at is not None]
        assert retired, "the scale-down should have retired at least one replica"
        for life in retired:
            replica_result = result.replicas[life.replica_id]
            assert replica_result.requests, "drained replicas held resident work"
            assert all(r.is_finished for r in replica_result.requests)
            assert all(r.finish_time <= life.retired_at for r in replica_result.requests)

    def test_drained_replica_gets_no_new_placements(self, platform_7b):
        autoscaler = Autoscaler(
            SchedulePolicy([(0.5, 1)]), interval=0.5, max_replicas=3
        )
        cluster = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=3)
        late = RequestSpec(
            request_id="late",
            input_length=48,
            output_length=8,
            max_new_tokens=8,
            arrival_time=1.0,
        )
        workload = Workload(
            name="drain-test", requests=list(instant_workload(18).requests) + [late]
        )
        result = cluster.run_open_loop(workload)
        assert len(result.finished_requests) == 19
        drained_ids = {life.replica_id for life in result.lifetimes if life.retired_at is not None}
        late_request = next(
            (i, r)
            for i, replica in enumerate(result.replicas)
            for r in replica.requests
            if r.spec.request_id == "late"
        )
        assert late_request[0] not in drained_ids

    def test_router_returning_unroutable_replica_raises(self, platform_7b):
        cluster = make_cluster(platform_7b, router=FixedRouter(1), num_replicas=2)
        cluster.replicas[1].state = ReplicaState.DRAINING
        with pytest.raises(RuntimeError, match="draining and must not receive new work"):
            cluster.run_open_loop(instant_workload(1))

    def test_router_returning_retired_replica_raises(self, platform_7b):
        cluster = make_cluster(platform_7b, router=FixedRouter(1), num_replicas=2)
        cluster.replicas[1].state = ReplicaState.RETIRED
        with pytest.raises(RuntimeError, match="retired and must not receive new work"):
            cluster.run_open_loop(instant_workload(1))

    def test_router_returning_unknown_replica_still_raises(self, platform_7b):
        cluster = make_cluster(platform_7b, router=FixedRouter(99), num_replicas=2)
        with pytest.raises(RuntimeError, match="invalid replica"):
            cluster.run_open_loop(instant_workload(1))

    def test_round_robin_survives_non_contiguous_fleet(self, platform_7b):
        # Shrink 3 -> 2 then grow back to 3: the replacement gets a fresh id,
        # so the routable set is non-contiguous, and round-robin must keep
        # cycling without error.
        autoscaler = Autoscaler(
            SchedulePolicy([(0.25, 2), (1.5, 3)]),
            interval=0.25,
            max_replicas=4,
        )
        cluster = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=3)
        workload = assign_bursty_arrivals(
            make_workload(num_requests=40), base_rate=5.0, burst_rate=50.0, seed=3
        )
        result = cluster.run_open_loop(workload)
        assert result.completed
        assert len(result.finished_requests) == 40
        assert result.num_replicas >= 4  # a replacement replica was launched
        retired_ids = {life.replica_id for life in result.lifetimes if life.retired_at is not None}
        assert retired_ids, "the shrink phase should have retired a replica"

    def test_fleet_timeline_and_replica_seconds(self, platform_7b):
        autoscaler = Autoscaler(
            SchedulePolicy([(0.5, 1)]), interval=0.5, max_replicas=3
        )
        cluster = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=3)
        # An instant burst followed by a late tail only the survivor serves,
        # so the makespan extends past the drained replicas' retirements.
        tail = [
            RequestSpec(
                request_id=f"tail-{i}",
                input_length=48,
                output_length=16,
                max_new_tokens=16,
                arrival_time=3.0 + 0.1 * i,
            )
            for i in range(6)
        ]
        workload = Workload(
            name="timeline-test", requests=list(instant_workload(18).requests) + tail
        )
        result = cluster.run_open_loop(workload)
        times = [sample.time for sample in result.fleet_timeline]
        assert times == sorted(times)
        assert result.fleet_timeline[0].provisioned == 3
        assert result.fleet_timeline[-1].active == 1
        # The shrink must make the run cheaper than a static 3-replica fleet,
        # but no cheaper than a single always-on replica.
        assert result.duration < result.replica_seconds < 3 * result.duration
        summary = result.fleet_summary(SLA)
        assert 1.0 < summary.avg_fleet_size < 3.0
        assert summary.replica_seconds == pytest.approx(result.replica_seconds)
        assert summary.goodput_per_replica_second == pytest.approx(
            result.goodput_per_replica_second(SLA)
        )

    def test_static_fleet_replica_seconds_match_makespan(self, platform_7b):
        cluster = make_cluster(platform_7b, num_replicas=2)
        result = cluster.run_closed_loop(make_workload(num_requests=8), num_clients=2)
        assert result.replica_seconds == pytest.approx(2 * result.duration)
        assert result.fleet_summary(SLA).avg_fleet_size == pytest.approx(2.0)

    def test_goodput_per_replica_second_rewards_elasticity(self, platform_7b):
        # Same trace, same router: a fleet that sheds two idle replicas must
        # score at least as high per replica-second as the static fleet.
        workload = instant_workload(18)
        static = make_cluster(platform_7b, num_replicas=3).run_open_loop(workload)
        autoscaler = Autoscaler(
            SchedulePolicy([(0.5, 1)]), interval=0.5, max_replicas=3
        )
        elastic = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=3).run_open_loop(
            instant_workload(18)
        )
        assert elastic.goodput_per_replica_second(SLA) >= static.goodput_per_replica_second(SLA)

    def test_autoscaled_result_describes_policy(self, platform_7b):
        autoscaler = Autoscaler(ReactivePolicy(), interval=0.5, max_replicas=3)
        cluster = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=2)
        result = cluster.run_open_loop(instant_workload(6))
        assert result.autoscaler is not None
        assert "reactive" in result.autoscaler
        assert "autoscaled by" in result.describe()


class TestCapacityNormalisedView:
    def test_capacity_totals(self):
        v = FleetView(
            time=0.0,
            snapshots=(idle_snapshot(0, 1000), idle_snapshot(1, 250)),
            num_warming=1,
            warming_capacity=1000,
            launch_capacity=250,
        )
        assert v.provisioned_capacity == 2250

    def test_predictive_sizes_in_capacity_units_on_mixed_fleet(self):
        # Forecast demand: 10 req/s * 1 s * (50 + 100) = 1500 tokens.  The
        # active fleet provisions 1250 tokens (one big, one small replica),
        # so the 250-token deficit costs exactly one 250-token launch.
        policy = predictive(horizon=1.0)
        policy.on_run_start()
        v = FleetView(
            time=1.0,
            snapshots=(idle_snapshot(0, 1000), idle_snapshot(1, 250)),
            arrival_rate=10.0,
            mean_arrival_tokens=50.0,
            launch_capacity=250,
        )
        assert policy.target_size(v) == 3

        # The same 250-token deficit still costs exactly one launch when the
        # next launch is a 2000-token replica: the policy buys
        # ceil(deficit / launch_capacity) = ceil(250 / 2000) = 1.
        bigger_launch = FleetView(
            time=1.0,
            snapshots=(idle_snapshot(0, 1000), idle_snapshot(1, 250)),
            arrival_rate=10.0,
            mean_arrival_tokens=50.0,
            launch_capacity=2000,
        )
        assert policy.target_size(bigger_launch) == 3  # ceil(250 / 2000) = 1 launch

    def test_predictive_homogeneous_arithmetic_unchanged(self):
        # On a homogeneous fleet capacity units are replica counts: 1500
        # tokens over 1000-token replicas -> 2.
        policy = predictive(horizon=1.0)
        policy.on_run_start()
        v = FleetView(
            time=1.0,
            snapshots=(idle_snapshot(0, 1000),),
            arrival_rate=10.0,
            mean_arrival_tokens=50.0,
            launch_capacity=1000,
        )
        assert policy.target_size(v) == 2

    def test_cluster_reports_launch_and_warming_capacity(self, platform_7b):
        autoscaler = Autoscaler(
            SchedulePolicy([(0.0, 3)]), interval=0.5, max_replicas=4, warmup_delay=5.0
        )
        cluster = make_cluster(platform_7b, autoscaler=autoscaler, num_replicas=2)
        assert cluster.next_launch_capacity() == 2048
        result = cluster.run_open_loop(instant_workload(6))
        assert result.completed

    def test_heterogeneous_elastic_fleet_cycles_platforms(self):
        from repro.hardware.platform import paper_platforms

        platforms = paper_platforms("7b-a100", "7b-4090")
        autoscaler = Autoscaler(
            SchedulePolicy([(0.05, 4)]), interval=0.1, max_replicas=4, warmup_delay=0.2
        )
        cluster = ClusterSimulator(
            platforms=platforms,
            num_replicas=2,
            router="least-kv-load",
            scheduler_name="conservative",
            capacity_scale=1.0 / 32.0,
            autoscaler=autoscaler,
        )
        # Launch cycle: a100, 4090, a100, 4090 — the next launch (index 2)
        # is an A100 again.
        assert cluster.next_launch_capacity() == int(platforms[0].token_capacity / 32)
        result = cluster.run_open_loop(instant_workload(24, prompt=16, output=8))
        assert result.completed
        assert result.num_replicas == 4
        gpus = [r.platform for r in result.replicas]
        assert sum("A100" in g for g in gpus) == 2
        assert sum("4090" in g for g in gpus) == 2

    def test_heterogeneous_shrink_waits_for_largest_replica_surplus(self):
        # Mixed fleet, zero demand: shrinking retires a replica the policy
        # does not choose, so it must only shrink once the surplus covers
        # the largest active replica (here it always does at zero demand),
        # and must hold when the surplus is smaller than the big replica.
        policy = PredictivePolicy(target_utilization=1.0, default_length=100)
        policy.on_run_start()
        idle_mixed = FleetView(
            time=20.0,
            snapshots=(idle_snapshot(0, 1000), idle_snapshot(1, 250)),
            launch_capacity=250,
        )
        assert policy.target_size(idle_mixed) == 1

        policy.on_run_start()
        loaded_big = FleetView(
            time=20.0,
            snapshots=(
                ReplicaView(
                    replica_id=0,
                    token_capacity=1000,
                    used_tokens=400,
                    current_tokens=(400,),
                    generated_tokens=(399,),
                    remaining_cap_tokens=(1,),
                    num_running=1,
                ),
                idle_snapshot(1, 250),
            ),
            launch_capacity=250,
        )
        # Demand ~401 tokens -> surplus ~849 < 1000 (the largest replica):
        # retiring the A100-sized replica would immediately be re-bought.
        assert policy.target_size(loaded_big) == 2
