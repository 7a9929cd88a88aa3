"""Tests for the roofline cost model."""

from __future__ import annotations

import pytest

from repro.engine.cost_model import CostModel, StepWork
from repro.hardware.models import LLAVA_15_7B
from repro.hardware.platform import Platform, paper_platform
from repro.hardware.gpus import A100_80G


@pytest.fixture(scope="module")
def cost_model_7b() -> CostModel:
    return CostModel(paper_platform("7b-a100"))


def decode_tokens_per_second(cost_model: CostModel, context_tokens: int, batch_size: int) -> float:
    """Tokens per second of one decode-only step over ``batch_size`` residents."""
    work = StepWork(decode_requests=batch_size, decode_context_tokens=context_tokens * batch_size)
    return batch_size / cost_model.step_seconds(work)


class TestValidation:
    def test_rejects_bad_efficiencies(self, platform_7b):
        with pytest.raises(ValueError):
            CostModel(platform_7b, compute_efficiency=0.0)
        with pytest.raises(ValueError):
            CostModel(platform_7b, bandwidth_efficiency=1.5)

    def test_rejects_negative_overhead(self, platform_7b):
        with pytest.raises(ValueError):
            CostModel(platform_7b, step_overhead_seconds=-1.0)

    def test_rejects_non_positive_speed_factor(self, platform_7b):
        with pytest.raises(ValueError):
            CostModel(platform_7b, speed_factor=0.0)


class TestStepWork:
    def test_idle_detection(self):
        assert StepWork().is_idle
        assert not StepWork(prefill_tokens=1).is_idle
        assert not StepWork(decode_requests=1).is_idle
        assert not StepWork(images_encoded=1).is_idle


class TestComponentCosts:
    def test_zero_work_costs_nothing(self, cost_model_7b):
        assert cost_model_7b.prefill_seconds(0) == 0.0
        assert cost_model_7b.decode_seconds(0, 0) == 0.0
        assert cost_model_7b.step_seconds(StepWork()) == 0.0

    def test_prefill_scales_linearly_with_tokens(self, cost_model_7b):
        one = cost_model_7b.prefill_seconds(1000)
        two = cost_model_7b.prefill_seconds(2000)
        assert two == pytest.approx(2 * one)

    def test_prefill_latency_order_of_magnitude(self, cost_model_7b):
        # 1k-token prefill of a 7B model on A100 takes on the order of 100 ms.
        latency = cost_model_7b.prefill_seconds(1000)
        assert 0.01 < latency < 1.0

    def test_decode_step_latency_order_of_magnitude(self, cost_model_7b):
        # A decode iteration of a 7B model is tens of milliseconds.
        latency = cost_model_7b.decode_seconds(32, 32 * 1024)
        assert 0.005 < latency < 0.2

    def test_decode_grows_with_context(self, cost_model_7b):
        small = cost_model_7b.decode_seconds(16, 16 * 256)
        large = cost_model_7b.decode_seconds(16, 16 * 4096)
        assert large > small

    def test_vision_cost_only_for_multimodal(self, cost_model_7b):
        assert cost_model_7b.vision_seconds(3) == 0.0
        llava = CostModel(Platform(model=LLAVA_15_7B, gpu=A100_80G))
        assert llava.vision_seconds(2) == pytest.approx(2 * LLAVA_15_7B.vision_encoder_seconds)


class TestTotals:
    def test_step_seconds_includes_overhead(self, platform_7b):
        model = CostModel(platform_7b, step_overhead_seconds=0.01)
        latency = model.step_seconds(StepWork(decode_requests=1, decode_context_tokens=100))
        assert latency >= 0.01

    def test_speed_factor_scales_latency(self, platform_7b):
        base = CostModel(platform_7b, speed_factor=1.0)
        slow = CostModel(platform_7b, speed_factor=2.0)
        work = StepWork(prefill_tokens=512, decode_requests=8, decode_context_tokens=8 * 512)
        assert slow.step_seconds(work) == pytest.approx(2 * base.step_seconds(work))

    def test_bigger_model_is_slower(self):
        small = CostModel(paper_platform("7b-a100"))
        large = CostModel(paper_platform("13b-a100"))
        work = StepWork(decode_requests=16, decode_context_tokens=16 * 1024)
        assert large.step_seconds(work) > small.step_seconds(work)

    def test_faster_gpu_is_faster(self):
        a100 = CostModel(paper_platform("7b-a100"))
        h800 = CostModel(paper_platform("7b-h800"))
        work = StepWork(prefill_tokens=2048, decode_requests=16, decode_context_tokens=16 * 1024)
        assert h800.step_seconds(work) < a100.step_seconds(work)

    def test_throughput_upper_bound_positive(self, cost_model_7b):
        assert decode_tokens_per_second(cost_model_7b, 1024, 32) > 100.0

    def test_batching_improves_tokens_per_second(self, cost_model_7b):
        # Decode is memory-bound on weights, so batching amortises the reads.
        single = decode_tokens_per_second(cost_model_7b, 512, 1)
        batched = decode_tokens_per_second(cost_model_7b, 512, 32)
        assert batched > 5 * single
