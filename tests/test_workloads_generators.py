"""Tests for the synthetic workload and trace generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.models import LLAMA2_7B, LLAVA_15_7B, QWEN_VL_CHAT
from repro.workloads.burstgpt import (
    FIGURE3_TRACES,
    figure3_trace,
    generate_api_trace,
    generate_conversation_trace,
)
from repro.workloads.distributions import (
    DISTRIBUTION_1,
    DISTRIBUTION_2,
    DISTRIBUTION_3,
    distribution_workload,
    generate_uniform_workload,
)
from repro.workloads.mixed import generate_phase_workload, generate_varying_load
from repro.workloads.multimodal import generate_textvqa_workload
from repro.workloads.sharegpt import (
    generate_sharegpt_o1_workload,
    generate_sharegpt_workload,
)


class TestUniformDistributions:
    def test_lengths_within_ranges(self):
        workload = generate_uniform_workload(DISTRIBUTION_1, 500, seed=1)
        for spec in workload:
            assert 32 <= spec.input_length <= 4096
            assert spec.output_length <= 4096
        assert workload.mean_output_length > workload.mean_input_length

    def test_distribution3_is_prefill_heavy(self):
        workload = generate_uniform_workload(DISTRIBUTION_3, 500, seed=2)
        assert workload.mean_output_length < workload.mean_input_length

    def test_distribution2_is_balanced(self):
        workload = generate_uniform_workload(DISTRIBUTION_2, 2000, seed=3)
        ratio = workload.mean_output_length / workload.mean_input_length
        assert 0.9 < ratio < 1.1

    def test_deterministic_with_seed(self):
        a = generate_uniform_workload(DISTRIBUTION_1, 50, seed=9)
        b = generate_uniform_workload(DISTRIBUTION_1, 50, seed=9)
        assert a.output_lengths == b.output_lengths

    def test_different_seeds_differ(self):
        a = generate_uniform_workload(DISTRIBUTION_1, 50, seed=1)
        b = generate_uniform_workload(DISTRIBUTION_1, 50, seed=2)
        assert a.output_lengths != b.output_lengths

    def test_lookup_by_name(self):
        workload = distribution_workload("Distribution-2", 10)
        assert workload.name == "Distribution-2"
        with pytest.raises(KeyError):
            distribution_workload("Distribution-9", 10)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            generate_uniform_workload(DISTRIBUTION_1, 0)


class TestShareGPT:
    def test_sharegpt_respects_cap(self):
        workload = generate_sharegpt_workload(300, seed=4)
        assert all(spec.output_length <= 2048 for spec in workload)
        assert all(spec.max_new_tokens == 2048 for spec in workload)

    def test_sharegpt_o1_is_decode_heavy(self):
        workload = generate_sharegpt_o1_workload(500, seed=5)
        assert workload.mean_output_length > workload.mean_input_length
        # Paper reports ~381 input / ~2160 output tokens on average.
        assert 200 < workload.mean_input_length < 700
        assert 1400 < workload.mean_output_length < 3200

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            generate_sharegpt_workload(0)
        with pytest.raises(ValueError):
            generate_sharegpt_o1_workload(-1)


class TestBurstGPTTraces:
    def test_conversation_trace_is_stationary(self):
        workload = generate_conversation_trace(4000, seed=6)
        lengths = np.array(workload.output_lengths)
        first_half_mean = lengths[:2000].mean()
        second_half_mean = lengths[2000:].mean()
        assert abs(first_half_mean - second_half_mean) / first_half_mean < 0.15

    def test_api_trace_drifts_over_time(self):
        workload = generate_api_trace(20000, seed=7, drift_period=10000)
        lengths = np.array(workload.output_lengths)
        first = lengths[:4000].mean()
        middle = lengths[8000:12000].mean()
        # The mixture rotation makes distant segments differ noticeably.
        assert abs(first - middle) / first > 0.15

    def test_api_trace_request_ids_in_order(self):
        workload = generate_api_trace(100, seed=8)
        indices = [int(spec.request_id.rsplit("-", 1)[1]) for spec in workload]
        assert indices == sorted(indices)

    def test_figure3_labels_all_generate(self):
        for label in FIGURE3_TRACES:
            workload = figure3_trace(label, 200, seed=1)
            assert len(workload) == 200

    def test_figure3_unknown_label(self):
        with pytest.raises(KeyError):
            figure3_trace("(z) Unknown", 10)

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            generate_conversation_trace(0)
        with pytest.raises(ValueError):
            generate_api_trace(0)


class TestMultimodal:
    def test_image_tokens_match_model(self):
        qwen = generate_textvqa_workload(QWEN_VL_CHAT, 100, seed=1)
        llava = generate_textvqa_workload(LLAVA_15_7B, 100, seed=1)
        assert all(spec.image_tokens == 256 for spec in qwen)
        assert all(spec.image_tokens == 576 for spec in llava)

    def test_answers_are_short(self):
        workload = generate_textvqa_workload(QWEN_VL_CHAT, 500, seed=2)
        assert workload.mean_output_length < 40

    def test_text_only_model_rejected(self):
        with pytest.raises(ValueError):
            generate_textvqa_workload(LLAMA2_7B, 10)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            generate_textvqa_workload(QWEN_VL_CHAT, 0)


class TestMixedWorkloads:
    def test_varying_load_has_four_phases(self):
        workload = generate_varying_load(50, seed=3)
        assert len(workload) == 200
        assert "ShareGPT-o1" in workload.description

    def test_phase_order_preserved(self):
        workload = generate_varying_load(100, seed=4)
        # First phase (ShareGPT-o1) is decode heavy with short-ish inputs;
        # last phase (Distribution-3) is prefill heavy.
        first_phase = workload.requests[:100]
        last_phase = workload.requests[-100:]
        first_ratio = np.mean([s.output_length for s in first_phase]) / np.mean(
            [s.input_length for s in first_phase]
        )
        last_ratio = np.mean([s.output_length for s in last_phase]) / np.mean(
            [s.input_length for s in last_phase]
        )
        assert first_ratio > 1.0
        assert last_ratio < 1.0

    def test_phase_workload_requires_phases(self):
        with pytest.raises(ValueError):
            generate_phase_workload("empty", [])

    def test_rejects_non_positive_phase_size(self):
        with pytest.raises(ValueError):
            generate_varying_load(0)
