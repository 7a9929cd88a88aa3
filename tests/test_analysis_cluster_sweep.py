"""Tests for the cluster experiment drivers (router and autoscale sweeps)."""

from __future__ import annotations

import pytest

from repro.analysis.autoscale_sweep import (
    AutoscaleExperimentConfig,
    autoscale_comparison_sweep,
    autoscale_table,
)
from repro.analysis.cluster_sweep import (
    ClusterExperimentConfig,
    fleet_table,
    router_comparison_sweep,
    run_cluster_experiment,
)
from repro.analysis.tables import render_table
from repro.serving.results import ClusterResult
from repro.serving.sla import SLASpec
from repro.workloads.arrivals import assign_poisson_arrivals
from tests.conftest import make_workload

SLA = SLASpec(ttft_limit=10.0, mtpot_limit=1.5)


@pytest.fixture()
def config(platform_7b) -> ClusterExperimentConfig:
    return ClusterExperimentConfig(
        platform=platform_7b,
        num_replicas=2,
        scheduler_name="conservative",
        token_capacity_override=2048,
    )


@pytest.fixture()
def stamped():
    return assign_poisson_arrivals(make_workload(num_requests=16), request_rate=20.0, seed=5)


class TestClusterExperimentConfig:
    def test_config_round_trips_into_simulator(self, platform_7b):
        config = ClusterExperimentConfig(
            platform=platform_7b,
            num_replicas=3,
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.9},
            chunked_prefill_tokens=256,
            token_capacity_override=1024,
        )
        simulator = config.build_simulator("least-kv-load")
        assert simulator.num_replicas == 3
        assert simulator.router.name == "least-kv-load"
        for replica in simulator.replicas:
            assert replica.engine.token_capacity == 1024
            assert replica.engine.chunked_prefill_tokens == 256
            assert replica.engine.pool.token_capacity == 1024
            assert "aggressive" in replica.engine.scheduler.describe()

    def test_each_build_is_a_fresh_fleet(self, config):
        first = config.build_simulator("round-robin")
        second = config.build_simulator("round-robin")
        assert first is not second
        assert first.replicas[0].engine is not second.replicas[0].engine

    def test_default_sla_matches_model_preset(self, config):
        from repro.serving.sla import sla_for_model

        assert config.default_sla() == sla_for_model(config.platform.model.name)


class TestRouterComparisonSweep:
    def test_runs_every_registered_router_by_default(self, config, stamped):
        results = router_comparison_sweep(config, stamped)
        from repro.serving.routing import available_routers

        assert sorted(results) == available_routers()
        assert all(isinstance(r, ClusterResult) for r in results.values())

    def test_same_stamped_workload_across_routers(self, config, stamped):
        # The invariant the sweep exists for: every router sees the identical
        # trace, so per-run arrival times (and totals) match exactly.
        results = router_comparison_sweep(config, stamped, routers=["round-robin", "least-kv-load"])
        expected_arrivals = sorted(spec.arrival_time for spec in stamped)
        for result in results.values():
            assert result.completed
            assert result.submitted_requests == len(stamped)
            arrivals = sorted(r.arrival_time for r in result.requests)
            assert arrivals == pytest.approx(expected_arrivals)

    def test_single_experiment_runs_end_to_end(self, config, stamped):
        result = run_cluster_experiment(config, stamped, "least-outstanding")
        assert result.completed
        assert len(result.finished_requests) == len(stamped)
        assert result.router == "least-outstanding"

    def test_fleet_table_rows_render(self, config, stamped):
        results = router_comparison_sweep(config, stamped, routers=["round-robin"])
        rows = fleet_table(results, SLA)
        assert len(rows) == 1
        assert rows[0]["router"] == "round-robin"
        assert "goodput_tok_s" in rows[0]
        assert "round-robin" in render_table(rows, title="t")


class TestAutoscaleComparisonSweep:
    def test_tiny_end_to_end_sweep(self, platform_7b, stamped):
        config = AutoscaleExperimentConfig(
            platform=platform_7b,
            initial_replicas=1,
            min_replicas=1,
            max_replicas=3,
            decision_interval=0.25,
            warmup_delay=0.1,
            scheduler_name="conservative",
            token_capacity_override=2048,
        )
        results = autoscale_comparison_sweep(config, stamped, policies=["static", "reactive"])
        assert sorted(results) == ["reactive", "static"]
        for result in results.values():
            assert result.completed
            assert len(result.finished_requests) == len(stamped)
        # The static baseline runs peak-provisioned at max_replicas.
        assert all(s.provisioned == 3 for s in results["static"].fleet_timeline)
        rows = autoscale_table(results, SLA)
        assert {row["policy"] for row in rows} == {"static", "reactive"}
        assert all("goodput_per_rs" in row for row in rows)

    def test_policy_kwargs_reach_policies(self, platform_7b):
        config = AutoscaleExperimentConfig(platform=platform_7b, token_capacity_override=2048)
        autoscaler = config.build_autoscaler("reactive", cooldown=42.0)
        assert autoscaler.policy.cooldown == 42.0
        with pytest.raises(ValueError, match="policy_kwargs"):
            from repro.serving.autoscale import StaticPolicy

            config.build_autoscaler(StaticPolicy(), cooldown=1.0)
