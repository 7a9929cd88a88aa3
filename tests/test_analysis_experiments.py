"""Tests for the one experiment description: FleetConfig, run_experiment, sweep."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import FleetConfig, run_experiment, sweep
from repro.analysis.perf import cluster_fingerprint, run_fingerprint
from repro.analysis.tables import autoscale_table, fleet_table, render_table
from repro.engine.cost_model import CostModel
from repro.engine.engine import InferenceEngine
from repro.hardware.platform import paper_platforms
from repro.obs.tracer import RingTracer
from repro.schedulers.registry import create_scheduler
from repro.serving.autoscale import Autoscaler, create_autoscale_policy
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import FaultPlan, ReplicaCrash, RetryPolicy
from repro.serving.results import ClusterResult, RunResult
from repro.serving.routing import available_routers
from repro.serving.server import ServingSimulator
from repro.serving.sla import SLASpec
from repro.serving.throttle import REASON_THROTTLED, OverloadThrottle
from repro.workloads.arrivals import assign_poisson_arrivals
from repro.workloads.interactions import Interaction, InteractionStage, generate_interactions
from repro.workloads.spec import Workload
from repro.workloads.tenants import assign_tenants, generate_tenant_population
from tests.conftest import make_spec, make_workload

SLA = SLASpec(ttft_limit=10.0, mtpot_limit=1.5)

#: Two platforms serving one model: the smallest heterogeneous fleet.
MIXED_FLEET = paper_platforms("7b-a100", "7b-4090")


@pytest.fixture()
def config(platform_7b) -> FleetConfig:
    return FleetConfig(
        platform=platform_7b,
        num_replicas=2,
        router="round-robin",
        scheduler_name="conservative",
        token_capacity_override=2048,
    )


@pytest.fixture()
def stamped():
    return assign_poisson_arrivals(make_workload(num_requests=16), request_rate=20.0, seed=5)


@pytest.fixture()
def runs(monkeypatch):
    """Labels of the runs a sweep starts, in order."""
    started: list[str] = []
    real = experiments.run_experiment

    def recording(config, load, tracer=None):
        started.append(config.autoscaler.policy.name if config.autoscaler else str(config.router))
        return real(config, load, tracer)

    monkeypatch.setattr(experiments, "run_experiment", recording)
    return started


#: The engine-level numbers one check covers, and values it must refuse.
ENGINE_SETTINGS = ("speed_factor", "token_capacity_override", "chunked_prefill_tokens", "capacity_scale")
BAD_SETTING_VALUES = (0, -1, math.nan, math.inf)


def _bad_setting(setting: str, value) -> dict:
    """Overrides setting ``setting`` alone: ``capacity_scale`` excludes the pool override."""
    if setting == "capacity_scale":
        return {setting: value, "token_capacity_override": None}
    return {setting: value}


def _router_variants(names):
    return {name: {"router": name} for name in names}


class TestConstruction:
    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"platforms": MIXED_FLEET}, "exactly one of platform / platforms"),
            ({"platform": None}, "exactly one of platform / platforms"),
            ({"num_replicas": 2}, "router=None serves one fixed replica"),
            ({"autoscaler": Autoscaler("reactive")}, "router=None serves one fixed replica"),
            (
                {
                    "router": "round-robin",
                    "autoscaler": Autoscaler("reactive", min_replicas=2, max_replicas=6),
                },
                r"within the autoscaler's \[2, 6\] bounds",
            ),
            (
                {
                    "router": "round-robin",
                    "autoscaler": Autoscaler("reactive", max_replicas=6),
                    "num_replicas": 7,
                },
                r"within the autoscaler's \[1, 6\] bounds",
            ),
            ({"token_capacity_override": 2048, "capacity_scale": 0.5}, "mutually exclusive"),
            ({"capacity_scale": 0.5}, "a single engine takes token_capacity_override"),
            (
                {"platform": None, "platforms": MIXED_FLEET, "router": "round-robin", "speed_factor": 1.2},
                "explicit cost_model only applies to homogeneous fleets",
            ),
            ({"prefix_cache_tokens": 0}, "prefix_cache_tokens must be positive when set"),
            ({"think_time": 1.0}, "num_clients=None is open loop"),
            ({"num_clients": 0}, "num_clients must be positive"),
            ({"num_clients": -3}, "num_clients must be positive"),
            ({"num_clients": 4, "think_time": -1.0}, "think_time must be finite and non-negative"),
            ({"num_clients": 4, "think_time": math.inf}, "think_time must be finite and non-negative"),
            (
                {"faults": FaultPlan(crashes=[ReplicaCrash(time=1.0, replica=0)])},
                "router=None serves one fixed replica",
            ),
        ],
    )
    def test_invalid_config_raises_at_construction(self, platform_7b, overrides, message):
        with pytest.raises(ValueError, match=message):
            FleetConfig(**{"platform": platform_7b, **overrides})

    @pytest.mark.parametrize("value", BAD_SETTING_VALUES)
    @pytest.mark.parametrize("setting", ENGINE_SETTINGS)
    def test_engine_settings_must_be_finite_and_positive(self, config, setting, value):
        with pytest.raises(ValueError, match=f"{setting} must be finite and positive"):
            dataclasses.replace(config, **_bad_setting(setting, value))

    @pytest.mark.parametrize("value", BAD_SETTING_VALUES)
    def test_engines_and_cost_models_check_their_own_settings(self, platform_7b, value):
        # A NaN speed used to stall the fleet loop at an infinite clock.
        with pytest.raises(ValueError, match="speed_factor must be finite and positive"):
            CostModel(platform_7b, speed_factor=value)
        for setting in ("token_capacity_override", "chunked_prefill_tokens"):
            with pytest.raises(ValueError, match=f"{setting} must be finite and positive"):
                ServingSimulator(platform_7b, create_scheduler("aggressive"), **{setting: value})
        with pytest.raises(ValueError, match="capacity_scale must be finite and positive"):
            ClusterSimulator(
                platform=platform_7b, num_replicas=2, router="round-robin", capacity_scale=value
            )

    # Each case builds a config the way a caller does: an autoscaler is an
    # instance, so its policy name and keywords raise where it is built.
    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda platform: Autoscaler("reactve"), "did you mean 'reactive'"),
            (
                lambda platform: FleetConfig(platform=platform, scheduler_name="agressive"),
                "did you mean 'aggressive'",
            ),
            (
                lambda platform: FleetConfig(platform=platform, router="round-robn"),
                "did you mean 'round-robin'",
            ),
        ],
        ids=["autoscale", "scheduler", "router"],
    )
    def test_misspelled_autoscale_policy_raises(self, platform_7b, build, message):
        with pytest.raises(KeyError, match=message):
            build(platform_7b)

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda platform: Autoscaler(create_autoscale_policy("reactive", cooldwn=2.0)), "cooldwn"),
            (
                lambda platform: FleetConfig(
                    platform=platform, scheduler_name="aggressive", scheduler_kwargs={"watermrk": 0.9}
                ),
                "watermrk",
            ),
            (
                lambda platform: FleetConfig(platform=platform, scheduler_kwargs={"reserved_fractoin": 0.1}),
                "reserved_fractoin",
            ),
        ],
        ids=["autoscale", "scheduler", "past-future"],
    )
    def test_unknown_policy_keyword_raises(self, platform_7b, build, message):
        with pytest.raises(TypeError, match=message):
            build(platform_7b)

    def test_another_policys_keyword_raises(self):
        # Regression: kwargs were keyed by policy name, so a "predictive"
        # entry on a reactive run was dropped without a word.
        with pytest.raises(TypeError, match="target_utilization"):
            create_autoscale_policy("reactive", target_utilization=0.8)

    def test_config_round_trips_into_simulator(self, platform_7b):
        config = FleetConfig(
            platform=platform_7b,
            num_replicas=3,
            router="least-kv-load",
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.9},
            chunked_prefill_tokens=256,
            token_capacity_override=1024,
        )
        simulator = config.build_simulator()
        assert simulator.num_replicas == 3
        assert simulator.router.name == "least-kv-load"
        for replica in simulator.replicas:
            assert replica.engine.token_capacity == 1024
            assert replica.engine.chunked_prefill_tokens == 256
            assert replica.engine.pool.token_capacity == 1024
            assert "aggressive" in replica.engine.scheduler.describe()

    def test_each_build_is_a_fresh_fleet(self, config):
        first = config.build_simulator()
        second = config.build_simulator()
        assert first is not second
        assert first.replicas[0].engine is not second.replicas[0].engine

    def test_single_engine_builds_the_facade(self, platform_7b):
        simulator = FleetConfig(platform=platform_7b, token_capacity_override=1024).build_simulator()
        assert isinstance(simulator, ServingSimulator)
        assert simulator.engine.token_capacity == 1024

    def test_autoscaler_reaches_the_simulator(self, platform_7b):
        autoscaler = Autoscaler(create_autoscale_policy("reactive", cooldown=42.0))
        config = FleetConfig(platform=platform_7b, router="round-robin", autoscaler=autoscaler)
        assert config.build_simulator().autoscaler is autoscaler

    def test_static_policy_is_peak_provisioned(self, platform_7b):
        config = FleetConfig(
            platform=platform_7b, router="round-robin", autoscaler=Autoscaler("static", max_replicas=3)
        )
        assert config.launch_size == 3
        assert config.build_simulator().num_replicas == 3

    def test_static_config_holds_peak_size_through_a_run(self, platform_7b, stamped):
        config = FleetConfig(
            platform=platform_7b,
            router="round-robin",
            scheduler_name="conservative",
            token_capacity_override=2048,
            autoscaler=Autoscaler("static", interval=0.25, max_replicas=3),
        )
        result = run_experiment(config, stamped)
        assert result.completed
        assert result.num_replicas == 3
        assert {sample.provisioned for sample in result.fleet_timeline} == {3}

    def test_elastic_policy_launches_num_replicas(self, platform_7b):
        config = FleetConfig(
            platform=platform_7b,
            num_replicas=2,
            router="round-robin",
            autoscaler=Autoscaler("reactive", max_replicas=4),
        )
        assert config.launch_size == 2
        assert config.build_simulator().num_replicas == 2


class TestEquivalence:
    """A config run is the hand-built simulator run, bit for bit."""

    def test_single_engine_matches_hand_built_simulator(self, platform_7b):
        workload = make_workload(num_requests=24)
        config = FleetConfig(
            platform=platform_7b,
            scheduler_name="past-future",
            scheduler_kwargs={"seed": 3},
            num_clients=6,
            token_capacity_override=1024,
            chunked_prefill_tokens=128,
            speed_factor=1.1,
        )
        result = run_experiment(config, workload)
        assert isinstance(result, RunResult)
        hand_built = ServingSimulator(
            platform_7b,
            create_scheduler("past-future", seed=3),
            cost_model=CostModel(platform_7b, speed_factor=1.1),
            chunked_prefill_tokens=128,
            token_capacity_override=1024,
        ).run_closed_loop(workload, num_clients=6)
        assert run_fingerprint(result) == run_fingerprint(hand_built)

    def test_open_loop_single_engine(self, platform_7b, stamped):
        config = FleetConfig(platform=platform_7b, token_capacity_override=2048)
        result = run_experiment(config, stamped)
        hand_built = ServingSimulator(
            platform_7b, create_scheduler("past-future"), token_capacity_override=2048
        ).run_open_loop(stamped)
        assert result.num_clients == 0
        assert run_fingerprint(result) == run_fingerprint(hand_built)

    def test_fleet_matches_hand_built_simulator(self, config, stamped):
        result = run_experiment(config, stamped)
        assert isinstance(result, ClusterResult)
        hand_built = ClusterSimulator(
            config.platform,
            num_replicas=2,
            router="round-robin",
            scheduler_name="conservative",
            token_capacity_override=2048,
        ).run_open_loop(stamped)
        assert cluster_fingerprint(result) == cluster_fingerprint(hand_built)

    def test_autoscaled_fleet_matches_hand_built_simulator(self, platform_7b):
        # Small pools under a 40 req/s burst: the reactive fleet grows 1 -> 3.
        workload = assign_poisson_arrivals(make_workload(num_requests=32), request_rate=40.0, seed=5)

        def reactive():
            return Autoscaler(
                create_autoscale_policy("reactive", scale_up_threshold=0.25, cooldown=0.5),
                interval=0.25,
                max_replicas=3,
                warmup_delay=0.1,
            )

        config = FleetConfig(
            platform=platform_7b,
            router="least-outstanding",
            autoscaler=reactive(),
            scheduler_name="conservative",
            token_capacity_override=512,
        )
        hand_built = ClusterSimulator(
            platform_7b,
            router="least-outstanding",
            scheduler_name="conservative",
            token_capacity_override=512,
            autoscaler=reactive(),
        ).run_open_loop(workload)
        assert max(s.provisioned for s in hand_built.fleet_timeline) == 3
        # The config's one instance serves every run: twice on its own, then
        # both variants of a sweep.  Each run starts with its on_run_start.
        results = [run_experiment(config, workload), run_experiment(config, workload)]
        results += sweep(config, workload, {"first": {}, "second": {}}).values()
        assert [cluster_fingerprint(r) for r in results] == [cluster_fingerprint(hand_built)] * 4

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_faulted_throttled_session_fleet_matches_hand_built_simulator(
        self, platform_7b, fast_path
    ):
        interactions = generate_interactions(
            12,
            seed=5,
            mean_prompt_tokens=64.0,
            mean_output_tokens=16.0,
            min_turns=2,
            max_turns=6,
            think_time=0.5,
            start_spacing=0.2,
            num_users=3,
        )
        faults = FaultPlan(
            crashes=[ReplicaCrash(time=1.0, replica=1)],
            seed=3,
            retry_policy=RetryPolicy(base_delay=0.05, max_attempts=4, seed=3),
            replace_crashed=True,
            replacement_warmup=0.5,
        )
        config = FleetConfig(
            platform=platform_7b,
            num_replicas=2,
            router="session-affinity",
            scheduler_name="aggressive",
            token_capacity_override=2048,
            fast_path=fast_path,
            faults=faults,
            throttle=OverloadThrottle(user_rpm=10),
            prefix_cache_tokens=1024,
        )
        result = run_experiment(config, interactions)
        hand_built = ClusterSimulator(
            platform_7b,
            num_replicas=2,
            router="session-affinity",
            scheduler_name="aggressive",
            token_capacity_override=2048,
            fast_path=fast_path,
            faults=faults,
            throttle=OverloadThrottle(user_rpm=10),
            prefix_cache_tokens=1024,
        ).run_sessions(interactions)
        assert cluster_fingerprint(result) == cluster_fingerprint(hand_built)
        # Every field reached the fleet: a crash was retried, the throttle
        # rejected turns and follow-up turns hit the prefix cache.
        assert result.retries > 0
        assert result.reject_reasons[REASON_THROTTLED] > 0
        assert sum(r.prefix_stats.hits for r in result.replicas) > 0

    def test_sessions_reject_a_client_pool(self, platform_7b):
        config = FleetConfig(platform=platform_7b, num_clients=4)
        interactions = generate_interactions(2, seed=1)
        with pytest.raises(ValueError, match="sessions carry their own think times"):
            run_experiment(config, interactions)

    def test_traced_throttled_engine_matches_untraced_hand_built_simulator(self, platform_7b):
        population = generate_tenant_population(4, abusive_users=1, abusive_share=0.6)
        workload = assign_poisson_arrivals(
            assign_tenants(make_workload(num_requests=24), population, seed=2),
            request_rate=20.0,
            seed=5,
        )
        config = FleetConfig(
            platform=platform_7b,
            scheduler_name="vtc",
            token_capacity_override=1024,
            throttle=OverloadThrottle(user_rpm=6),
        )
        tracer = RingTracer()
        result = run_experiment(config, workload, tracer=tracer)
        hand_built = ServingSimulator(
            platform_7b,
            create_scheduler("vtc"),
            token_capacity_override=1024,
            throttle=OverloadThrottle(user_rpm=6),
        ).run_open_loop(workload)
        assert run_fingerprint(result) == run_fingerprint(hand_built)
        assert result.reject_reasons[REASON_THROTTLED] > 0
        assert any(event.name == "request.throttled" for event in tracer.events)


class TestLoadAgainstConfig:
    """A load that can never fit fails before the first engine step."""

    @pytest.fixture()
    def steps(self, monkeypatch):
        """Every ``InferenceEngine.step`` call, as it happens."""
        calls: list[float] = []
        real = InferenceEngine.step

        def counting(engine, time, *args, **kwargs):
            calls.append(time)
            return real(engine, time, *args, **kwargs)

        monkeypatch.setattr(InferenceEngine, "step", counting)
        return calls

    @pytest.mark.parametrize("router", [None, "round-robin"], ids=["engine", "fleet"])
    def test_a_prompt_larger_than_every_pool_raises_before_any_step(
        self, platform_7b, stamped, steps, router
    ):
        last = stamped.requests[-1].arrival_time
        big = make_spec("big", input_length=5000, output_length=20, max_new_tokens=20, arrival_time=last + 1)
        config = FleetConfig(
            platform=platform_7b,
            num_replicas=1 if router is None else 2,
            router=router,
            scheduler_name="conservative",
            token_capacity_override=4096,
        )
        with pytest.raises(ValueError, match="request big needs 5020 KV tokens, more than .* 4096"):
            run_experiment(config, Workload("misfit", [*stamped.requests, big]))
        assert steps == []

    @pytest.mark.parametrize("fleet", [False, True], ids=["engine", "fleet"])
    @pytest.mark.parametrize("run", ["run_open_loop", "run_closed_loop"])
    def test_every_run_entry_point_checks_the_load(self, platform_7b, steps, fleet, run):
        if fleet:
            sim = ClusterSimulator(platform_7b, num_replicas=2, token_capacity_override=512)
        else:
            sim = ServingSimulator(platform_7b, create_scheduler("conservative"), token_capacity_override=512)
        # "big" comes second (one client, or a later arrival), after steps ran.
        load = Workload(
            "misfit", [make_spec("ok", arrival_time=0.0), make_spec("big", input_length=600, arrival_time=1.0)]
        )
        args = (1,) if run == "run_closed_loop" else ()
        with pytest.raises(ValueError, match="request big needs 616 KV tokens"):
            getattr(sim, run)(load, *args)
        assert steps == []

    def test_a_request_the_throttle_would_reject_is_still_checked(self, config, steps):
        # The throttle would turn "big" away (its user's one-request window is
        # full), yet a load that names a request no replica holds is refused.
        load = Workload(
            "throttled-misfit",
            [
                make_spec("first", user_id="u", arrival_time=0.0),
                make_spec("big", input_length=3000, user_id="u", arrival_time=0.1),
            ],
        )
        throttled = dataclasses.replace(config, throttle=OverloadThrottle(user_rpm=1))
        with pytest.raises(ValueError, match="request big needs 3016 KV tokens"):
            run_experiment(throttled, load)
        assert steps == []

    def test_a_session_turn_larger_than_every_pool_raises_before_any_step(self, config, steps):
        # The third turn's prompt carries both earlier turns' context.
        turns = tuple(InteractionStage(prompt_tokens=900, output_tokens=100) for _ in range(3))
        sessions = [Interaction("small", turns[:1]), Interaction("long", turns)]
        with pytest.raises(ValueError, match="request long/t2 needs 3000 KV tokens"):
            run_experiment(config, sessions)
        assert steps == []


class TestSweep:
    def test_every_registered_router(self, config, stamped):
        results = sweep(config, stamped, _router_variants(available_routers()))
        assert sorted(results) == available_routers()
        assert all(isinstance(r, ClusterResult) for r in results.values())
        assert all(result.router.startswith(name) for name, result in results.items())

    def test_same_stamped_workload_across_routers(self, config, stamped):
        # The invariant the sweep exists for: every router sees the identical
        # trace, so per-run arrival times (and totals) match exactly.
        results = sweep(config, stamped, _router_variants(["round-robin", "least-kv-load"]))
        expected_arrivals = sorted(spec.arrival_time for spec in stamped)
        for result in results.values():
            assert result.completed
            assert result.submitted_requests == len(stamped)
            assert len(result.finished_requests) == len(stamped)
            arrivals = sorted(r.arrival_time for r in result.requests)
            assert arrivals == pytest.approx(expected_arrivals)

    def test_fleet_table_rows_render(self, config, stamped):
        results = sweep(config, stamped, _router_variants(["round-robin"]))
        rows = fleet_table(results, SLA)
        assert len(rows) == 1
        assert rows[0]["router"] == "round-robin"
        assert "goodput_tok_s" in rows[0]
        assert "round-robin" in render_table(rows, title="t")

    def test_tiny_autoscale_sweep(self, platform_7b, stamped):
        config = FleetConfig(
            platform=platform_7b,
            router="least-outstanding",
            scheduler_name="conservative",
            token_capacity_override=2048,
        )
        variants = {
            name: {"autoscaler": Autoscaler(name, interval=0.25, max_replicas=3, warmup_delay=0.1)}
            for name in ("static", "reactive")
        }
        results = sweep(config, stamped, variants)
        assert sorted(results) == ["reactive", "static"]
        for result in results.values():
            assert result.completed
            assert len(result.finished_requests) == len(stamped)
        # The static baseline runs peak-provisioned at max_replicas.
        assert all(s.provisioned == 3 for s in results["static"].fleet_timeline)
        rows = autoscale_table(results, SLA)
        assert {row["policy"] for row in rows} == {"static", "reactive"}
        assert all("goodput_per_rs" in row for row in rows)

    def test_unknown_field_raises_before_any_run(self, config, stamped, runs):
        variants = {"a": {"router": "round-robin"}, "b": {"rotuer": "least-kv-load"}}
        with pytest.raises(TypeError, match="rotuer"):
            sweep(config, stamped, variants)
        assert runs == []

    def test_mismatched_policy_keyword_raises_before_any_run(self, config, stamped, runs):
        with pytest.raises(TypeError, match="target_utilization"):
            variants = {
                name: {"autoscaler": Autoscaler(create_autoscale_policy(name, target_utilization=0.8))}
                for name in ("predictive", "reactive")
            }
            sweep(config, stamped, variants)
        assert runs == []

    def test_invalid_autoscale_variant_raises_before_static_runs(self, config, stamped, runs):
        # Regression: initial replicas above max_replicas used to run the
        # static baseline in full and fail only when the reactive run began.
        config = FleetConfig(
            platform=config.platform,
            num_replicas=4,
            router="round-robin",
            token_capacity_override=2048,
        )
        variants = {
            name: {"autoscaler": Autoscaler(name, max_replicas=3)} for name in ("static", "reactive")
        }
        with pytest.raises(ValueError, match=r"\[1, 3\] bounds"):
            sweep(config, stamped, variants)
        assert runs == []

    def test_invalid_client_variant_raises_before_any_run(self, config, stamped, runs):
        variants = {"a": {"router": "round-robin"}, "b": {"num_clients": 0}}
        with pytest.raises(ValueError, match="num_clients must be positive"):
            sweep(config, stamped, variants)
        assert runs == []

    @pytest.mark.parametrize("value", BAD_SETTING_VALUES)
    @pytest.mark.parametrize("setting", ENGINE_SETTINGS)
    def test_invalid_engine_setting_raises_before_any_run(self, config, stamped, runs, setting, value):
        variants = {"ok": {}, "bad": _bad_setting(setting, value)}
        with pytest.raises(ValueError, match=f"{setting} must be finite and positive"):
            sweep(config, stamped, variants)
        assert runs == []

    def test_sweep_runs_variants_in_order(self, config, stamped, runs):
        sweep(config, stamped, _router_variants(["least-kv-load", "round-robin"]))
        assert runs == ["least-kv-load", "round-robin"]
