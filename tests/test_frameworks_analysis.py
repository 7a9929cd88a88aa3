"""Tests for framework profiles, experiment drivers, sweeps, and tables."""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis import sweep as sweep_module
from repro.analysis.experiments import (
    FleetConfig,
    memory_report_from_run,
    run_experiment,
    run_framework,
)
from repro.analysis.sweep import (
    best_goodput,
    best_throughput,
    client_sweep,
    framework_sweep,
    parameter_sweep,
    scheduler_comparison_sweep,
)
from repro.analysis.tables import render_curves, render_table
from repro.core.past_future import PastFutureScheduler
from repro.frameworks.profiles import (
    DEEPSPEED_MII,
    FIGURE9_FRAMEWORKS,
    FRAMEWORK_REGISTRY,
    LIGHTLLM,
    MULTIMODAL_ORIGIN,
    TGI,
    VLLM,
    get_framework,
)
from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.conservative import ConservativeScheduler
from repro.serving.sla import SLA_SMALL_MODEL
from repro.workloads.distributions import UniformLengthSpec, generate_uniform_workload


@pytest.fixture(scope="module")
def tiny_workload():
    spec = UniformLengthSpec("tiny", 8, 64, 32, 128)
    return generate_uniform_workload(spec, 30, seed=13)


class TestFrameworkProfiles:
    def test_registry_contains_figure9_frameworks(self):
        for name in FIGURE9_FRAMEWORKS:
            assert name in FRAMEWORK_REGISTRY

    def test_scheduler_types_match_paper(self):
        assert isinstance(LIGHTLLM.build_scheduler(), PastFutureScheduler)
        assert isinstance(VLLM.build_scheduler(), AggressiveScheduler)
        assert isinstance(TGI.build_scheduler(), ConservativeScheduler)
        assert isinstance(DEEPSPEED_MII.build_scheduler(), ConservativeScheduler)

    def test_deepspeed_splitfuse_uses_finest_prefill_chunk(self):
        assert DEEPSPEED_MII.chunked_prefill_tokens is not None
        assert VLLM.chunked_prefill_tokens is not None
        assert DEEPSPEED_MII.chunked_prefill_tokens < VLLM.chunked_prefill_tokens
        assert DEEPSPEED_MII.chunked_prefill_tokens < LIGHTLLM.chunked_prefill_tokens

    def test_origin_profile_is_limited(self):
        scheduler = MULTIMODAL_ORIGIN.build_scheduler()
        assert scheduler.max_running_requests == 8
        assert MULTIMODAL_ORIGIN.speed_factor > 1.0

    def test_unknown_framework(self):
        with pytest.raises(KeyError):
            get_framework("SGLang")

    def test_build_scheduler_returns_fresh_instances(self):
        assert LIGHTLLM.build_scheduler() is not LIGHTLLM.build_scheduler()


class TestExperimentDriver:
    def test_run_experiment_completes(self, platform_7b, tiny_workload):
        config = FleetConfig(
            platform=platform_7b,
            scheduler_name="past-future",
            num_clients=6,
            token_capacity_override=1024,
        )
        result = run_experiment(config, tiny_workload)
        assert result.completed
        assert len(result.finished_requests) == len(tiny_workload)

    def test_memory_report_from_run(self, platform_7b, tiny_workload):
        config = FleetConfig(
            platform=platform_7b,
            scheduler_name="aggressive",
            num_clients=6,
            token_capacity_override=1024,
        )
        result = run_experiment(config, tiny_workload)
        report = memory_report_from_run(result)
        assert report.decoding_steps > 0
        assert 0.0 < report.consumed_memory_fraction <= 1.0
        assert set(report.as_row()) == {
            "scheduler", "workload", "decoding_steps",
            "consumed_memory", "future_required", "evicted_requests",
        }

    def test_default_sla_tracks_model(self, platform_7b, platform_70b):
        small = FleetConfig(platform=platform_7b)
        large = FleetConfig(platform=platform_70b)
        assert small.default_sla().ttft_limit == 10.0
        assert large.default_sla().ttft_limit == 15.0

    def test_run_framework_uses_profile_name(self, platform_7b, tiny_workload):
        config = FleetConfig(platform=platform_7b, num_clients=4, token_capacity_override=1024)
        result = run_framework(VLLM, config, tiny_workload)
        assert result.scheduler == "vLLM"


class TestSweeps:
    def test_client_sweep_produces_point_per_count(self, platform_7b, tiny_workload):
        config = FleetConfig(
            platform=platform_7b,
            scheduler_name="past-future",
            token_capacity_override=1024,
        )
        points = client_sweep(config, tiny_workload, client_counts=[2, 6])
        assert [p.num_clients for p in points] == [2, 6]
        assert all(p.goodput >= 0 for p in points)
        assert set(points[0].as_row()) >= {"scheduler", "clients", "goodput_tok_s"}

    def test_scheduler_comparison_sweep(self, platform_7b, tiny_workload):
        curves = scheduler_comparison_sweep(
            FleetConfig(platform=platform_7b, token_capacity_override=1024),
            tiny_workload,
            client_counts=[4],
            scheduler_configs={
                "Past-Future": {"scheduler_name": "past-future"},
                "Aggressive": {"scheduler_name": "aggressive"},
            },
        )
        assert set(curves) == {"Past-Future", "Aggressive"}
        assert all(len(points) == 1 for points in curves.values())

    def test_parameter_sweep(self, platform_7b, tiny_workload):
        points = parameter_sweep(
            FleetConfig(platform=platform_7b, num_clients=6, token_capacity_override=1024),
            tiny_workload,
            variants={
                "reserved=5%": {
                    "scheduler_name": "past-future",
                    "scheduler_kwargs": {"reserved_fraction": 0.05},
                },
                "watermark=95%": {
                    "scheduler_name": "aggressive",
                    "scheduler_kwargs": {"watermark": 0.95},
                },
            },
        )
        assert len(points) == 2
        assert all(p.decoding_steps > 0 for p in points)

    @pytest.mark.parametrize(
        "run_sweep",
        [
            lambda config, workload, variants: scheduler_comparison_sweep(
                config, workload, [4], variants
            ),
            parameter_sweep,
        ],
        ids=["scheduler_comparison_sweep", "parameter_sweep"],
    )
    def test_mistyped_override_raises_before_any_run(
        self, platform_7b, tiny_workload, monkeypatch, run_sweep
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before every variant was built")

        monkeypatch.setattr(sweep_module, "run_experiment", no_run)
        monkeypatch.setattr(experiments, "run_experiment", no_run)
        config = FleetConfig(platform=platform_7b, num_clients=4, token_capacity_override=1024)
        variants = {"ok": {"scheduler_name": "aggressive"}, "typo": {"scheduler_kwrags": {}}}
        with pytest.raises(TypeError, match="scheduler_kwrags"):
            run_sweep(config, tiny_workload, variants)

    def test_framework_sweep_and_maxima(self, platform_7b, tiny_workload):
        curves = framework_sweep(
            [LIGHTLLM, VLLM],
            FleetConfig(platform=platform_7b, token_capacity_override=1024),
            tiny_workload,
            client_counts=[4],
            sla=SLA_SMALL_MODEL,
        )
        assert set(curves) == {"LightLLM", "vLLM"}
        assert best_goodput(curves["LightLLM"]) >= 0
        assert best_throughput(curves["vLLM"]) > 0

    def test_best_goodput_of_empty(self):
        assert best_goodput([]) == 0.0


class TestTables:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 100, "bb": "z"}]
        text = render_table(rows, title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            render_table([{"a": 1}, {"b": 2}])

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([], title="Empty")

    def test_render_curves(self):
        from repro.analysis.sweep import SweepPoint

        curves = {
            "A": [SweepPoint("A", 10, 5.0, 6.0, 1.0, 0)],
            "B": [SweepPoint("B", 10, 7.0, 8.0, 1.0, 0), SweepPoint("B", 20, 9.0, 10.0, 1.0, 0)],
        }
        text = render_curves(
            curves, x_label="clients",
            x_getter=lambda p: p.num_clients, y_getter=lambda p: p.goodput,
            title="Goodput",
        )
        assert "clients" in text
        assert "-" in text  # missing point for curve A at 20 clients
