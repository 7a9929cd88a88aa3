"""Integration tests for the multi-replica cluster simulator."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.perf import cluster_snapshot, run_fingerprint
from repro.engine.request import Request
from repro.hardware.platform import paper_platforms
from repro.obs import events as obs
from repro.obs.tracer import RingTracer
from repro.schedulers.conservative import ConservativeScheduler
from repro.schedulers.registry import create_scheduler
from repro.serving.autoscale import Autoscaler, StaticPolicy
from repro.serving.cluster import ClusterSimulator, SimulationLimits
from repro.serving.faults import REASON_NO_REPLICAS, REASON_REPLICA_CRASH, FaultPlan, ReplicaCrash
from repro.serving.routing import ReplicaView, Router
from repro.serving.server import ServingSimulator
from repro.serving.sla import SLASpec
from repro.serving.throttle import REASON_THROTTLED, OverloadThrottle
from repro.workloads.arrivals import assign_bursty_arrivals, assign_poisson_arrivals
from repro.workloads.interactions import generate_interactions
from repro.workloads.sharegpt import generate_sharegpt_workload
from repro.workloads.spec import RequestSpec, Workload
from repro.workloads.tenants import assign_tenants, generate_tenant_population
from tests.conftest import make_spec, make_workload

SLA = SLASpec(ttft_limit=10.0, mtpot_limit=1.5)


def make_cluster(
    platform_7b,
    router: Router | str = "round-robin",
    num_replicas: int = 4,
    capacity: int = 2048,
    **kwargs,
) -> ClusterSimulator:
    return ClusterSimulator(
        platform=platform_7b,
        num_replicas=num_replicas,
        router=router,
        scheduler_name=kwargs.pop("scheduler_name", "conservative"),
        token_capacity_override=capacity,
        **kwargs,
    )


def stamped_workload(
    num_requests: int = 24, prompt: int = 48, output: int = 4, user_id: str | None = None
) -> Workload:
    """Workload whose requests all arrive at t=0 (maximum routing pressure)."""
    specs = [
        RequestSpec(
            request_id=f"c-{i}",
            input_length=prompt,
            output_length=output,
            max_new_tokens=output,
            arrival_time=0.0,
            user_id=user_id,
        )
        for i in range(num_requests)
    ]
    return Workload(name="cluster-test", requests=specs)


def throttled_cluster(platform_7b) -> ClusterSimulator:
    """A fleet whose throttle admits eight of one user's requests per minute."""
    return make_cluster(platform_7b, capacity=64, throttle=OverloadThrottle(user_rpm=8))


def crashing_cluster(platform_7b, retry: bool = False, **kwargs) -> ClusterSimulator:
    """A fleet that loses replicas 0 and 1 mid-run, with no replacements.

    Without ``retry`` the crashed replicas' requests are rejected, and their
    closed-loop clients get their slots back once a survivor can route again.
    """
    plan = FaultPlan(
        crashes=(ReplicaCrash(time=0.05, replica=0), ReplicaCrash(time=0.05, replica=1)),
        replace_crashed=False,
        **({} if retry else {"retry_policy": None}),
    )
    return make_cluster(platform_7b, capacity=64, faults=plan, **kwargs)


def closed_loop_burst() -> Workload:
    return make_workload(num_requests=32, input_length=48, output_length=4, max_new_tokens=8)


def warming_cluster(platform_7b, **kwargs) -> ClusterSimulator:
    """One replica that crashes at t=0; its replacement is ready at t=1."""
    plan = FaultPlan(crashes=(ReplicaCrash(time=0.0, replica=0),), replacement_warmup=1.0)
    return make_cluster(platform_7b, num_replicas=1, capacity=256, faults=plan, **kwargs)


class TestClusterRuns:
    def test_closed_loop_serves_every_request(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_closed_loop(make_workload(num_requests=32), num_clients=8)
        assert result.completed
        assert result.submitted_requests == 32
        assert len(result.finished_requests) == 32
        assert not result.rejected

    def test_round_robin_spreads_requests_evenly(self, platform_7b):
        cluster = make_cluster(platform_7b, router="round-robin")
        result = cluster.run_closed_loop(make_workload(num_requests=32), num_clients=4)
        assert [len(r.requests) for r in result.replicas] == [8, 8, 8, 8]

    def test_open_loop_with_recorded_arrivals(self, platform_7b):
        cluster = make_cluster(platform_7b, router="least-outstanding")
        result = cluster.run_open_loop(stamped_workload())
        assert result.completed
        assert len(result.finished_requests) == 24

    def test_memory_aware_cluster_run(self, platform_7b):
        workload = assign_bursty_arrivals(
            make_workload(num_requests=40), base_rate=2.0, burst_rate=50.0, seed=3
        )
        cluster = make_cluster(platform_7b, router="memory-aware")
        result = cluster.run_open_loop(workload)
        assert result.completed
        assert len(result.finished_requests) == 40

    def test_single_replica_matches_single_engine_simulator(self, platform_7b):
        # A 1-replica cluster is the degenerate case and must reproduce the
        # single-engine simulator exactly (same arrivals-join-this-batch
        # semantics), so fleet results extend the paper's numbers.
        from repro.schedulers.registry import create_scheduler
        from repro.serving.server import ServingSimulator

        single = ServingSimulator(
            platform_7b, create_scheduler("conservative"), token_capacity_override=2048
        )
        reference = single.run_closed_loop(make_workload(num_requests=20), num_clients=3)
        cluster = make_cluster(platform_7b, num_replicas=1)
        result = cluster.run_closed_loop(make_workload(num_requests=20), num_clients=3)
        assert result.duration == pytest.approx(reference.duration)
        assert [r.ttft for r in result.finished_requests] == pytest.approx(
            [r.ttft for r in reference.finished_requests]
        )

    def test_replica_clocks_resume_at_arrival_time(self, platform_7b):
        # A lone late request must not be served in the past.
        spec = RequestSpec(
            request_id="late", input_length=8, output_length=4, max_new_tokens=8, arrival_time=5.0
        )
        cluster = make_cluster(platform_7b, num_replicas=2)
        result = cluster.run_open_loop(Workload(name="late", requests=[spec]))
        (request,) = result.finished_requests
        assert request.first_token_time is not None
        assert request.first_token_time >= 5.0
        assert result.duration >= 5.0


class NeverAdmit(ConservativeScheduler):
    """Admits nothing, so requests wait on an idle engine until the stall guard fires."""

    def schedule(self, context):
        return []


class TestTermination:
    @pytest.mark.parametrize(
        ("reason", "options"),
        [
            ("max_steps", {"limits": SimulationLimits(max_steps=5)}),
            ("max_time", {"limits": SimulationLimits(max_time=0.05)}),
            ("stall", {"scheduler_factory": NeverAdmit}),
        ],
        ids=["max_steps", "max_time", "stall"],
    )
    def test_fleet_and_every_replica_report_the_stop_reason(self, platform_7b, reason, options):
        cluster = make_cluster(platform_7b, num_replicas=2, **options)
        result = cluster.run_open_loop(stamped_workload(output=64))
        assert result.termination == reason
        assert not result.completed
        assert [replica.termination for replica in result.replicas] == [reason, reason]

    def test_snapshots_carry_completed_but_not_the_reason(self, platform_7b):
        # Fingerprints hash these snapshots; the typed reason stays out of
        # them so no committed fingerprint moves.
        cluster = make_cluster(platform_7b, limits=SimulationLimits(max_steps=5))
        snapshot = cluster_snapshot(cluster.run_open_loop(stamped_workload(output=64)))
        for part in (snapshot, *snapshot["replicas"]):
            assert part["completed"] is False
            assert "termination" not in part


class TestConservation:
    def test_requests_conserved_without_rejection(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_open_loop(stamped_workload())
        assert result.routed_requests + len(result.rejected) == result.submitted_requests == 24

    def test_requests_conserved_with_rejection(self, platform_7b):
        # One user sends a 24-request instant burst against an 8-per-minute
        # limit, so most of it is throttled — and every request is still
        # accounted for.
        result = throttled_cluster(platform_7b).run_open_loop(stamped_workload(user_id="u0"))
        assert result.rejected
        assert result.routed_requests + len(result.rejected) == result.submitted_requests == 24
        assert len(result.finished_requests) == result.routed_requests
        summary = result.fleet_summary(SLA)
        assert summary.submitted_requests == 24
        assert summary.rejected_requests == len(result.rejected)

    def test_closed_loop_rejection_does_not_deadlock(self, platform_7b):
        result = crashing_cluster(platform_7b).run_closed_loop(closed_loop_burst(), num_clients=16)
        assert result.completed
        assert result.submitted_requests == 32
        assert result.reject_reasons == {REASON_REPLICA_CRASH: len(result.rejected)}
        assert result.routed_requests + len(result.rejected) == 32
        # Crash rejections must not cascade: rejected clients submit again
        # only once a survivor can route, so a solid share of the workload
        # is served even though 16 clients oversubscribe the two survivors.
        assert len(result.finished_requests) >= 16

    def test_closed_loop_rejection_off_with_retries(self, platform_7b):
        # The same fleet serves everything once crashed work is retried.
        cluster = crashing_cluster(platform_7b, retry=True)
        result = cluster.run_closed_loop(closed_loop_burst(), num_clients=16)
        assert result.retries > 0
        assert len(result.finished_requests) == 32
        assert not result.rejected

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_closed_loop_outage_accounts_for_every_request(self, platform_7b, fast_path):
        # The only replica crashes and is not replaced.  Rejected clients
        # must still get their slots back although no replica ever steps
        # again, or the pool silently stops submitting its workload.
        cluster = ClusterSimulator(
            platform=platform_7b,
            router="round-robin",
            scheduler_name="aggressive",
            faults=FaultPlan(crashes=(ReplicaCrash(time=5.0, replica=0),), replace_crashed=False),
            fast_path=fast_path,
        )
        result = cluster.run_closed_loop(generate_sharegpt_workload(40, seed=1), num_clients=4)
        assert result.completed
        assert result.submitted_requests == 40
        assert result.routed_requests == len(result.finished_requests) == 9
        assert result.reject_reasons == {REASON_NO_REPLICAS: 31}

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_closed_loop_outage_with_replacement_serves_every_request(self, platform_7b, fast_path):
        # The same outage with a replacement warming: crashed work retries,
        # is parked until the replacement is ready, and nothing is lost.
        plan = FaultPlan(crashes=(ReplicaCrash(time=5.0, replica=0),), replacement_warmup=2.0)
        cluster = ClusterSimulator(
            platform=platform_7b,
            router="round-robin",
            scheduler_name="aggressive",
            faults=plan,
            fast_path=fast_path,
        )
        result = cluster.run_closed_loop(generate_sharegpt_workload(40, seed=1), num_clients=4)
        assert result.completed
        assert result.deferrals > 0
        assert len(result.finished_requests) == 40
        assert not result.rejected


class TestFleetAggregates:
    def test_fleet_goodput_at_least_worst_replica(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_closed_loop(make_workload(num_requests=48), num_clients=8)
        per_replica = [replica.goodput(SLA) for replica in result.replicas]
        assert result.goodput(SLA) >= min(per_replica)

    def test_fleet_tokens_sum_over_replicas(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_closed_loop(make_workload(num_requests=32), num_clients=8)
        assert result.total_output_tokens == sum(r.total_output_tokens for r in result.replicas)
        assert result.duration == pytest.approx(max(r.duration for r in result.replicas))

    def test_fleet_summary_consistency(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_closed_loop(make_workload(num_requests=32), num_clients=8)
        summary = result.fleet_summary(SLA)
        assert summary.num_replicas == 4
        assert summary.finished_requests == len(result.finished_requests)
        assert summary.total_output_tokens == result.total_output_tokens
        assert 0.0 <= summary.sla_attainment <= 1.0
        assert summary.load_imbalance == pytest.approx(result.load_imbalance)
        assert summary.goodput == pytest.approx(result.goodput(SLA))

    def test_describe_mentions_router_and_replicas(self, platform_7b):
        cluster = make_cluster(platform_7b, router="least-kv-load", num_replicas=2)
        result = cluster.run_closed_loop(make_workload(num_requests=8), num_clients=2)
        text = result.describe()
        assert "least-kv-load" in text
        assert "2 replicas" in text


class TestRejectDeferBookkeeping:
    def test_reject_reasons_counted(self, platform_7b):
        result = throttled_cluster(platform_7b).run_open_loop(stamped_workload(user_id="u0"))
        assert result.rejected
        assert sum(result.reject_reasons.values()) == len(result.rejected)
        assert result.reject_reasons == {REASON_THROTTLED: len(result.rejected)}
        assert result.deferrals == 0

    def test_warming_park_counts_and_retries_requests(self, platform_7b):
        # Every arrival finds the only replica dead and its replacement
        # warming: each is parked until the replacement is ready, counted,
        # traced, and then served.
        tracer = RingTracer()
        result = warming_cluster(platform_7b, tracer=tracer).run_open_loop(
            stamped_workload(num_requests=8)
        )
        assert result.completed
        assert len(result.finished_requests) == 8
        assert not result.rejected
        assert result.deferrals == 8
        assert "8 deferred" in result.describe()
        parked = [e for e in tracer.events if e.name == obs.REQUEST_DEFERRED]
        assert [e.request_id for e in parked] == [f"c-{i}" for i in range(8)]
        assert all(e.time == 0.0 and e.attrs == {"retry_at": 1.0} for e in parked)
        reference = warming_cluster(platform_7b, fast_path=False).run_open_loop(
            stamped_workload(num_requests=8)
        )
        assert cluster_snapshot(reference) == cluster_snapshot(result)
        assert reference.deferrals == 8

    def test_warming_park_keeps_original_arrival_time(self, platform_7b):
        result = warming_cluster(platform_7b).run_open_loop(stamped_workload(num_requests=8))
        assert result.deferrals > 0
        # All requests arrived at t=0; parking must not launder TTFT.
        assert all(r.arrival_time == 0.0 for r in result.requests)
        assert all(r.first_token_time >= 1.0 for r in result.requests)


class TestHeterogeneousFleet:
    def test_platforms_cycle_and_capacities_differ(self):
        a100, a100b, rtx = paper_platforms("7b-a100", "7b-a100", "7b-4090")
        cluster = ClusterSimulator(
            platforms=[a100, a100b, rtx],
            num_replicas=3,
            router="least-kv-load",
            scheduler_name="conservative",
            capacity_scale=1.0 / 32.0,
        )
        views = cluster.snapshots()
        assert [v.platform.gpu.name for v in views] == ["A100-80G", "A100-80G", "RTX-4090"]
        assert views[0].token_capacity == views[1].token_capacity
        assert views[2].token_capacity < views[0].token_capacity
        # The 4090 decodes slower than the A100; the fastest platform is 1.0.
        assert views[0].speed_factor == 1.0
        assert 0.0 < views[2].speed_factor < 1.0

    def test_heterogeneous_run_end_to_end(self):
        platforms = paper_platforms("7b-a100", "7b-a100", "7b-4090")
        cluster = ClusterSimulator(
            platforms=platforms,
            num_replicas=3,
            router="memory-aware",
            scheduler_name="conservative",
            capacity_scale=1.0 / 32.0,
        )
        result = cluster.run_closed_loop(make_workload(num_requests=24), num_clients=6)
        assert result.completed
        assert len(result.finished_requests) == 24
        assert "A100-80G" in result.platform and "RTX-4090" in result.platform
        assert {r.platform for r in result.replicas} == {
            p.describe() for p in platforms
        }

    @pytest.mark.parametrize(
        "router", ["round-robin", "least-outstanding", "least-kv-load", "memory-aware"]
    )
    def test_request_too_large_for_one_replica_routes_to_another(self, router):
        # 18,575 tokens overflow the 4090's 18,525-token pool but fit the A100.
        specs = [
            RequestSpec(
                request_id=f"big-{i}",
                input_length=18_525,
                output_length=50,
                max_new_tokens=50,
                arrival_time=float(i),
            )
            for i in range(2)
        ]
        cluster = ClusterSimulator(
            platforms=paper_platforms("7b-a100", "7b-4090"),
            num_replicas=2,
            router=router,
            scheduler_name="aggressive",
        )
        result = cluster.run_open_loop(Workload(name="big", requests=specs))
        assert result.completed
        assert [len(r.requests) for r in result.replicas] == [2, 0]
        assert len(result.finished_requests) == 2

    def test_request_too_large_for_every_replica_raises(self):
        spec = RequestSpec(
            request_id="huge",
            input_length=18_500,
            output_length=50,
            max_new_tokens=50,
            arrival_time=0.0,
        )
        cluster = ClusterSimulator(
            platforms=paper_platforms("7b-4090", "7b-4090"),
            num_replicas=2,
            router="round-robin",
            scheduler_name="aggressive",
        )
        with pytest.raises(ValueError, match="huge needs 18550 .* largest replica's capacity of 18525"):
            cluster.run_open_loop(Workload(name="huge", requests=[spec]))

    def test_homogeneous_platform_string_unchanged(self, platform_7b):
        cluster = make_cluster(platform_7b, num_replicas=2)
        result = cluster.run_closed_loop(make_workload(num_requests=4), num_clients=2)
        assert result.platform == platform_7b.describe()

    def test_mixed_models_rejected(self):
        from repro.hardware.platform import paper_platform

        with pytest.raises(Exception, match="one model"):
            ClusterSimulator(
                platforms=[paper_platform("7b-a100"), paper_platform("13b-a100")],
                num_replicas=2,
                router="round-robin",
            )

    def test_platform_and_platforms_mutually_exclusive(self, platform_7b):
        with pytest.raises(ValueError, match="exactly one"):
            ClusterSimulator(
                platform=platform_7b, platforms=[platform_7b], num_replicas=1, router="round-robin"
            )
        with pytest.raises(ValueError, match="exactly one"):
            ClusterSimulator(num_replicas=1, router="round-robin")

    def test_capacity_scale_and_override_mutually_exclusive(self, platform_7b):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ClusterSimulator(
                platform=platform_7b,
                num_replicas=1,
                router="round-robin",
                token_capacity_override=100,
                capacity_scale=0.5,
            )

    def test_explicit_cost_model_requires_homogeneous_fleet(self):
        from repro.engine.cost_model import CostModel

        platforms = paper_platforms("7b-a100", "7b-4090")
        with pytest.raises(ValueError, match="homogeneous"):
            ClusterSimulator(
                platforms=platforms,
                num_replicas=2,
                router="round-robin",
                cost_model=CostModel(platforms[0]),
            )


class TestValidation:
    def test_zero_replicas_rejected(self, platform_7b):
        with pytest.raises(ValueError, match="num_replicas"):
            make_cluster(platform_7b, num_replicas=0)

    def test_invalid_router_name_rejected(self, platform_7b):
        with pytest.raises(KeyError, match="unknown router"):
            make_cluster(platform_7b, router="random")

    def test_router_returning_bad_replica_raises(self, platform_7b):
        class BrokenRouter(Router):
            name = "broken"

            def decide(self, spec, views):
                return 99

        cluster = make_cluster(platform_7b, router=BrokenRouter())
        with pytest.raises(RuntimeError, match="invalid replica"):
            cluster.run_open_loop(stamped_workload(num_requests=1))

    def test_simulator_is_single_use(self, platform_7b):
        cluster = make_cluster(platform_7b)
        cluster.run_closed_loop(make_workload(num_requests=8), num_clients=2)
        with pytest.raises(RuntimeError, match="single-use"):
            cluster.run_closed_loop(make_workload(num_requests=8), num_clients=2)

    def test_per_replica_schedulers_are_independent(self, platform_7b):
        cluster = make_cluster(platform_7b, scheduler_name="past-future")
        schedulers = {id(replica.engine.scheduler) for replica in cluster.replicas}
        assert len(schedulers) == 4

    def test_snapshot_reflects_engine_state(self, platform_7b):
        cluster = make_cluster(platform_7b, num_replicas=2)
        snapshots = cluster.snapshots()
        assert [s.replica_id for s in snapshots] == [0, 1]
        assert all(isinstance(s, ReplicaView) for s in snapshots)
        assert all(s.used_tokens == 0 and s.outstanding == 0 for s in snapshots)

        # Mid-run: an overcommitting scheduler on a tiny pool leaves running
        # requests, a fresh queued one, and an evictee back in the queue.
        cluster = make_cluster(
            platform_7b,
            num_replicas=1,
            capacity=64,
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 1.0},
        )
        engine = cluster.replicas[0].engine
        for index in range(3):
            spec = make_spec(request_id=f"r{index}", input_length=24, output_length=30, max_new_tokens=30)
            engine.submit(Request(spec=spec, arrival_time=0.0), time=0.0)
        time = 0.0
        for _ in range(100):
            if engine.batch and any(r.generated_tokens > 0 for r in engine.waiting):
                break
            time = engine.step(time).end_time
        requests = [*engine.batch, *engine.waiting]
        assert engine.batch and len(engine.waiting) >= 2
        assert any(r.generated_tokens > 0 for r in engine.waiting)
        (view,) = cluster.snapshots()
        assert view.current_tokens == tuple(r.current_context_tokens for r in requests)
        assert view.generated_tokens == tuple(r.generated_tokens for r in requests)
        assert view.remaining_cap_tokens == tuple(r.remaining_cap_tokens for r in requests)
        assert view.num_running == engine.num_running
        assert view.num_waiting == len(engine.waiting)
        assert view.used_tokens == engine.pool.used_tokens


def tenant_workload(num_requests: int = 40) -> Workload:
    population = generate_tenant_population(3, abusive_users=1, abusive_share=0.8)
    workload = assign_tenants(make_workload(num_requests=num_requests), population, seed=2)
    return assign_poisson_arrivals(workload, request_rate=40.0, seed=4)


#: Three single-engine runs: ``(run method, inputs factory, run kwargs,
#: simulator options)``.  The throttle resets its windows at each run start.
SINGLE_ENGINE_RUNS = {
    "closed-loop": (
        "run_closed_loop",
        lambda: make_workload(num_requests=24),
        {"num_clients": 4},
        {},
    ),
    "throttled-open-loop": (
        "run_open_loop",
        tenant_workload,
        {},
        {"throttle": OverloadThrottle(user_rpm=8)},
    ),
    "sessions-prefix-cache": (
        "run_sessions",
        lambda: generate_interactions(
            8, seed=3, mean_prompt_tokens=24.0, mean_output_tokens=32.0, max_turns=3
        ),
        {},
        {"prefix_cache_tokens": 1024},
    ),
}


class TestDirectRouting:
    """``router=None``: the one fixed replica behind ``ServingSimulator``."""

    @pytest.mark.parametrize("run", sorted(SINGLE_ENGINE_RUNS))
    def test_single_engine_matches_one_replica_fleet(self, platform_7b, run):
        method, inputs, kwargs, options = SINGLE_ENGINE_RUNS[run]
        single = ServingSimulator(
            platform_7b,
            create_scheduler("aggressive", watermark=0.9),
            token_capacity_override=2048,
            **options,
        )
        expected = getattr(single, method)(inputs(), **kwargs)
        fleet = make_cluster(
            platform_7b,
            num_replicas=1,
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.9},
            **options,
        )
        result = getattr(fleet, method)(inputs(), **kwargs)
        replica = dataclasses.replace(
            result.replicas[0], rejected=result.rejected, reject_reasons=result.reject_reasons
        )
        assert run_fingerprint(replica) == run_fingerprint(expected)
        if run == "throttled-open-loop":
            assert expected.rejected

    @pytest.mark.parametrize(
        "options",
        [
            {"num_replicas": 2},
            {"autoscaler": Autoscaler(StaticPolicy(), min_replicas=1, max_replicas=2)},
            {"faults": FaultPlan(crashes=(ReplicaCrash(time=1.0, replica=0),))},
        ],
        ids=["two-replicas", "autoscaler", "faults"],
    )
    def test_direct_routing_needs_one_fixed_replica(self, platform_7b, options):
        with pytest.raises(ValueError, match="router=None"):
            ClusterSimulator(platform=platform_7b, router=None, **options)
