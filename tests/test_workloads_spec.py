"""Tests for request specs and workload containers."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.workloads.spec import (
    SLA_CLASS_BATCH,
    SLA_CLASS_INTERACTIVE,
    RequestSpec,
    Workload,
    assign_sla_classes,
    concatenate,
    scale_workload,
)
from tests.conftest import make_spec, make_workload


class TestRequestSpec:
    def test_valid_spec(self):
        spec = make_spec(input_length=10, output_length=5, max_new_tokens=20)
        assert spec.prompt_tokens == 10
        assert spec.total_tokens == 15

    def test_image_tokens_add_to_prompt(self):
        spec = make_spec(input_length=10, image_tokens=256)
        assert spec.prompt_tokens == 266

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            make_spec(input_length=-1)

    def test_rejects_non_positive_output(self):
        with pytest.raises(ValueError):
            make_spec(output_length=0)

    def test_rejects_output_above_cap(self):
        with pytest.raises(ValueError):
            make_spec(output_length=100, max_new_tokens=50)

    def test_rejects_negative_image_tokens(self):
        with pytest.raises(ValueError):
            make_spec(image_tokens=-1)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf"), -0.5])
    def test_rejects_negative_or_non_finite_arrival(self, arrival):
        with pytest.raises(ValueError, match="arrival_time"):
            RequestSpec(
                request_id="r0", input_length=4, output_length=2, max_new_tokens=4, arrival_time=arrival
            )
        with pytest.raises(ValueError, match="arrival_time"):
            make_spec().with_arrival(arrival)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"session_id": "", "session_stage": 0}, "session_id"),
            ({"session_stage": 0}, "set together"),
            ({"session_id": "s0"}, "set together"),
            ({"session_id": "s0", "session_stage": -1}, "non-negative"),
            ({"session_stages": 2}, "requires session_id"),
            ({"session_id": "s0", "session_stage": 2, "session_stages": 2}, "below session_stages"),
        ],
    )
    def test_rejects_inconsistent_session_fields(self, fields, match):
        with pytest.raises(ValueError, match=match):
            make_spec(**fields)

    def test_with_arrival(self):
        spec = make_spec()
        timed = spec.with_arrival(3.5)
        assert timed.arrival_time == 3.5
        assert spec.arrival_time is None


class TestWorkload:
    def test_duplicate_ids_rejected(self):
        spec = make_spec(request_id="dup")
        with pytest.raises(ValueError):
            Workload(name="w", requests=[spec, spec])

    def test_iteration(self):
        workload = make_workload(num_requests=3)
        assert len(workload) == 3
        assert list(workload) == workload.requests

    def test_means(self):
        workload = make_workload(num_requests=4, input_length=10, output_length=30)
        assert workload.mean_input_length == 10
        assert workload.mean_output_length == 30

    def test_empty_workload_statistics(self):
        workload = Workload(name="empty")
        assert workload.mean_input_length == 0.0
        assert workload.mean_output_length == 0.0

    def test_output_lengths(self):
        workload = make_workload(num_requests=5, output_length=7)
        assert workload.output_lengths == [7] * 5

    def test_renumbered_ids_unique(self):
        workload = make_workload(num_requests=3, name="a")
        renamed = workload.renumbered("x")
        assert [r.request_id for r in renamed] == ["x-0", "x-1", "x-2"]


class TestComposition:
    def test_concatenate_preserves_order_and_renames(self):
        first = make_workload(num_requests=2, name="alpha")
        second = make_workload(num_requests=3, name="beta")
        combined = concatenate("combo", [first, second])
        assert len(combined) == 5
        assert combined.requests[0].request_id.startswith("w0-")
        assert combined.requests[-1].request_id.startswith("w1-")

    def test_scale_workload_halves_lengths(self):
        workload = make_workload(num_requests=2, input_length=100, output_length=50, max_new_tokens=80)
        scaled = scale_workload(workload, 0.5)
        assert scaled.requests[0].input_length == 50
        assert scaled.requests[0].output_length == 25
        assert scaled.requests[0].max_new_tokens == 40

    def test_scale_workload_respects_floor_and_cap_invariant(self):
        workload = make_workload(num_requests=2, input_length=3, output_length=2, max_new_tokens=2)
        scaled = scale_workload(workload, 0.01)
        for spec in scaled:
            assert spec.output_length >= 1
            assert spec.max_new_tokens >= spec.output_length

    def test_scale_workload_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            scale_workload(make_workload(), 0.0)


class TestSLAClasses:
    def test_default_class_is_interactive(self):
        assert make_spec().sla_class == SLA_CLASS_INTERACTIVE

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="sla_class"):
            make_spec(sla_class="")

    def test_class_counts(self):
        workload = Workload(
            name="mixed",
            requests=[
                make_spec(request_id="a"),
                make_spec(request_id="b", sla_class=SLA_CLASS_BATCH),
                make_spec(request_id="c", sla_class=SLA_CLASS_BATCH),
            ],
        )
        counts = Counter(spec.sla_class for spec in workload)
        assert counts == {SLA_CLASS_BATCH: 2, SLA_CLASS_INTERACTIVE: 1}

    def test_assign_sla_classes_mixes_to_fractions(self):
        workload = make_workload(num_requests=400)
        stamped = assign_sla_classes(
            workload, {SLA_CLASS_INTERACTIVE: 0.75, SLA_CLASS_BATCH: 0.25}, seed=1
        )
        counts = Counter(spec.sla_class for spec in stamped)
        assert counts[SLA_CLASS_INTERACTIVE] + counts[SLA_CLASS_BATCH] == 400
        assert 0.6 < counts[SLA_CLASS_INTERACTIVE] / 400 < 0.9
        assert "classes:" in stamped.description

    def test_assign_sla_classes_deterministic_per_seed(self):
        workload = make_workload(num_requests=50)
        fractions = {SLA_CLASS_INTERACTIVE: 0.5, SLA_CLASS_BATCH: 0.5}

        def classes(seed):
            return [s.sla_class for s in assign_sla_classes(workload, fractions, seed=seed)]

        assert classes(9) == classes(9)
        assert classes(9) != classes(10)

    def test_assign_sla_classes_validation(self):
        workload = make_workload(num_requests=4)
        with pytest.raises(ValueError, match="at least one"):
            assign_sla_classes(workload, {})
        with pytest.raises(ValueError, match="sum to 1"):
            assign_sla_classes(workload, {"a": 0.5, "b": 0.1})

    def test_scale_workload_preserves_classes(self):
        workload = Workload(
            name="w", requests=[make_spec(request_id="a", sla_class=SLA_CLASS_BATCH)]
        )
        scaled = scale_workload(workload, 0.5)
        assert scaled.requests[0].sla_class == SLA_CLASS_BATCH
