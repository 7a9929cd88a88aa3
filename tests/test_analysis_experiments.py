"""Tests for the one experiment description: FleetConfig, run_experiment, sweep."""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import FleetConfig, run_experiment, sweep
from repro.analysis.perf import cluster_fingerprint, run_fingerprint
from repro.analysis.tables import autoscale_table, fleet_table, render_table
from repro.engine.cost_model import CostModel
from repro.hardware.platform import paper_platforms
from repro.schedulers.registry import create_scheduler
from repro.serving.autoscale import Autoscaler, create_autoscale_policy
from repro.serving.cluster import ClusterSimulator
from repro.serving.results import ClusterResult, RunResult
from repro.serving.routing import available_routers
from repro.serving.server import ServingSimulator
from repro.serving.sla import SLASpec, sla_for_model
from repro.workloads.arrivals import assign_poisson_arrivals
from tests.conftest import make_workload

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

    def recording(config, workload, scheduler=None):
        started.append(config.autoscale or str(config.router))
        return real(config, workload, scheduler)

    monkeypatch.setattr(experiments, "run_experiment", recording)
    return started


def _router_variants(names):
    return {name: {"router": name} for name in names}


class TestConstruction:
    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"platforms": MIXED_FLEET}, "exactly one of platform / platforms"),
            ({"platform": None}, "exactly one of platform / platforms"),
            ({"num_replicas": 2}, "router=None serves one fixed replica"),
            ({"autoscale": "reactive"}, "router=None serves one fixed replica"),
            (
                {"router": "round-robin", "autoscale": "reactive", "min_replicas": 2},
                r"within the autoscaler's \[2, 6\] bounds",
            ),
            (
                {"router": "round-robin", "autoscale": "reactive", "num_replicas": 7},
                r"within the autoscaler's \[1, 6\] bounds",
            ),
            ({"token_capacity_override": 2048, "capacity_scale": 0.5}, "mutually exclusive"),
            ({"capacity_scale": 0.5}, "a single engine takes token_capacity_override"),
            (
                {"platform": None, "platforms": MIXED_FLEET, "router": "round-robin", "speed_factor": 1.2},
                "explicit cost_model only applies to homogeneous fleets",
            ),
        ],
    )
    def test_invalid_config_raises_at_construction(self, platform_7b, overrides, message):
        with pytest.raises(ValueError, match=message):
            FleetConfig(**{"platform": platform_7b, **overrides})

    def test_misspelled_autoscale_policy_raises(self, platform_7b):
        with pytest.raises(KeyError, match="did you mean 'reactive'"):
            FleetConfig(platform=platform_7b, router="round-robin", autoscale="reactve")

    def test_unknown_policy_keyword_raises(self, platform_7b):
        with pytest.raises(TypeError, match="cooldwn"):
            FleetConfig(
                platform=platform_7b,
                router="round-robin",
                autoscale="reactive",
                autoscale_kwargs={"cooldwn": 2.0},
            )

    def test_another_policys_keyword_raises(self, platform_7b):
        # Regression: kwargs were keyed by policy name, so a "predictive"
        # entry on a reactive run was dropped without a word.
        with pytest.raises(TypeError, match="target_utilization"):
            FleetConfig(
                platform=platform_7b,
                router="round-robin",
                autoscale="reactive",
                autoscale_kwargs={"target_utilization": 0.8},
            )

    def test_autoscale_kwargs_without_autoscale_raise(self, platform_7b):
        with pytest.raises(ValueError, match="autoscale_kwargs configure the autoscale policy"):
            FleetConfig(platform=platform_7b, router="round-robin", autoscale_kwargs={"cooldown": 2.0})

    def test_default_sla_matches_model_preset(self, platform_7b, platform_70b):
        assert FleetConfig(platform=platform_7b).default_sla() == sla_for_model(
            platform_7b.model.name
        )
        assert FleetConfig(platform=platform_70b).default_sla().ttft_limit == 15.0

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

    def test_scheduler_instance_needs_a_single_engine(self, config):
        with pytest.raises(ValueError, match="serves one engine"):
            config.build_simulator(create_scheduler("conservative"))

    def test_autoscale_kwargs_reach_the_policy(self, platform_7b):
        config = FleetConfig(
            platform=platform_7b,
            router="round-robin",
            autoscale="reactive",
            autoscale_kwargs={"cooldown": 42.0},
        )
        assert config.build_autoscaler().policy.cooldown == 42.0
        assert config.build_simulator().autoscaler.policy.cooldown == 42.0

    def test_static_policy_is_peak_provisioned(self, platform_7b):
        config = FleetConfig(
            platform=platform_7b, router="round-robin", autoscale="static", max_replicas=3
        )
        assert config.launch_size == 3
        assert config.build_simulator().num_replicas == 3


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

    def test_autoscaled_fleet_matches_hand_built_simulator(self, platform_7b, stamped):
        config = FleetConfig(
            platform=platform_7b,
            router="least-outstanding",
            autoscale="reactive",
            autoscale_kwargs={"cooldown": 0.5},
            max_replicas=3,
            decision_interval=0.25,
            warmup_delay=0.1,
            scheduler_name="conservative",
            token_capacity_override=2048,
        )
        result = run_experiment(config, stamped)
        autoscaler = Autoscaler(
            create_autoscale_policy("reactive", cooldown=0.5),
            interval=0.25,
            max_replicas=3,
            warmup_delay=0.1,
        )
        hand_built = ClusterSimulator(
            platform_7b,
            router="least-outstanding",
            scheduler_name="conservative",
            token_capacity_override=2048,
            autoscaler=autoscaler,
        ).run_open_loop(stamped)
        assert cluster_fingerprint(result) == cluster_fingerprint(hand_built)


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
            max_replicas=3,
            decision_interval=0.25,
            warmup_delay=0.1,
            scheduler_name="conservative",
            token_capacity_override=2048,
        )
        variants = {name: {"autoscale": name} for name in ("static", "reactive")}
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

    def test_mismatched_autoscale_kwargs_raise_before_any_run(self, config, stamped, runs):
        variants = {
            "static": {"autoscale": "static"},
            "reactive": {"autoscale": "reactive", "autoscale_kwargs": {"target_utilization": 0.8}},
        }
        with pytest.raises(TypeError, match="target_utilization"):
            sweep(config, stamped, variants)
        assert runs == []

    def test_invalid_autoscale_variant_raises_before_static_runs(self, config, stamped, runs):
        # Regression: initial replicas above max_replicas used to run the
        # static baseline in full and fail only when the reactive run began.
        config = FleetConfig(
            platform=config.platform,
            num_replicas=4,
            router="round-robin",
            max_replicas=3,
            token_capacity_override=2048,
        )
        variants = {name: {"autoscale": name} for name in ("static", "reactive")}
        with pytest.raises(ValueError, match=r"\[1, 3\] bounds"):
            sweep(config, stamped, variants)
        assert runs == []

    def test_sweep_runs_variants_in_order(self, config, stamped, runs):
        sweep(config, stamped, _router_variants(["least-kv-load", "round-robin"]))
        assert runs == ["least-kv-load", "round-robin"]
