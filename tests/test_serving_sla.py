"""Tests for SLA specifications and compliance checks."""

from __future__ import annotations

import pytest

from repro.engine.request import Request
from repro.serving.sla import (
    SLA_SMALL_MODEL,
    ClassLimits,
    SLASpec,
    two_class_sla,
)
from tests.conftest import make_spec
from tests.helpers import deliver


def finished_request(arrival=0.0, token_times=(1.0, 1.5, 2.0)) -> Request:
    request = Request(
        spec=make_spec(output_length=len(token_times), max_new_tokens=len(token_times) + 1),
        arrival_time=arrival,
    )
    request.admit(arrival)
    request.note_prefill(request.prompt_tokens)
    deliver(request, token_times)
    request.finish(token_times[-1])
    return request


class TestSLASpec:
    def test_rejects_non_positive_limits(self):
        with pytest.raises(ValueError):
            SLASpec(ttft_limit=0, mtpot_limit=1)
        with pytest.raises(ValueError):
            SLASpec(ttft_limit=1, mtpot_limit=0)

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            SLASpec(ttft_limit=1, mtpot_limit=1, percentile=0)

    def test_presets_match_paper(self):
        assert SLA_SMALL_MODEL.ttft_limit == 10.0
        assert SLA_SMALL_MODEL.mtpot_limit == 1.5

    def test_describe(self):
        assert "TTFT 10s" in SLA_SMALL_MODEL.describe()


class TestCompliance:
    def test_compliant_request(self):
        sla = SLASpec(ttft_limit=2.0, mtpot_limit=1.0)
        assert sla.request_compliant(finished_request())

    def test_ttft_violation(self):
        sla = SLASpec(ttft_limit=0.5, mtpot_limit=1.0)
        assert not sla.request_compliant(finished_request())

    def test_mtpot_violation(self):
        sla = SLASpec(ttft_limit=10.0, mtpot_limit=0.3)
        assert not sla.request_compliant(finished_request())

    def test_unfinished_request_is_non_compliant(self):
        request = Request(spec=make_spec(), arrival_time=0.0)
        assert not SLA_SMALL_MODEL.request_compliant(request)

    def test_single_token_request_checks_only_ttft(self):
        request = finished_request(token_times=(1.0,))
        assert SLASpec(ttft_limit=2.0, mtpot_limit=0.001).request_compliant(request)
        assert not SLASpec(ttft_limit=0.5, mtpot_limit=0.001).request_compliant(request)

    def test_eviction_stall_breaks_mtpot(self):
        # A long inter-token gap (as produced by an eviction + recompute)
        # violates the MTPOT limit even though TTFT and the other gaps are fine.
        request = finished_request(token_times=(1.0, 1.2, 5.0, 5.2))
        sla = SLASpec(ttft_limit=10.0, mtpot_limit=1.5)
        assert not sla.request_compliant(request)


def finished_class_request(sla_class: str, arrival=0.0, token_times=(1.0, 1.5, 2.0)) -> Request:
    request = Request(
        spec=make_spec(
            output_length=len(token_times), max_new_tokens=len(token_times) + 1, sla_class=sla_class
        ),
        arrival_time=arrival,
    )
    request.admit(arrival)
    request.note_prefill(request.prompt_tokens)
    deliver(request, token_times)
    request.finish(token_times[-1])
    return request


class TestClassLimits:
    def test_class_limits_validated(self):
        with pytest.raises(ValueError):
            ClassLimits(ttft_limit=0.0, mtpot_limit=1.0)
        with pytest.raises(ValueError):
            ClassLimits(ttft_limit=-1.0, mtpot_limit=1.0)

    def test_compliance_judged_per_class(self):
        # TTFT of the test request is 1.0s: inside batch's deadline, outside
        # interactive's.
        batch = ClassLimits(ttft_limit=5.0, mtpot_limit=1.0)
        sla = SLASpec(ttft_limit=0.5, mtpot_limit=1.0, class_limits={"batch": batch})
        assert sla.request_compliant(finished_class_request("batch"))
        assert not sla.request_compliant(finished_class_request("interactive"))

    def test_two_class_sla_factory(self):
        sla = two_class_sla(interactive=(2.5, 0.5), batch=(10.0, 1.5))
        assert sla.ttft_limit == 2.5  # base = the stricter contract
        assert sla.limits_for("interactive").ttft_limit == 2.5
        assert sla.limits_for("batch").ttft_limit == 10.0
        assert sla.limits_for("unknown-class").ttft_limit == 2.5

    def test_describe_lists_classes(self):
        sla = two_class_sla(interactive=(2.5, 0.5), batch=(10.0, 1.5))
        text = sla.describe()
        assert "batch" in text and "interactive" in text

    def test_spec_stays_hashable(self):
        # SLASpec was hashable before class limits existed; presets and
        # class-carrying specs must both keep working as dict keys.
        sla = two_class_sla(interactive=(2.5, 0.5), batch=(10.0, 1.5))
        assert {SLA_SMALL_MODEL: 1, sla: 2}[sla] == 2
        assert len({SLA_SMALL_MODEL, SLASpec(ttft_limit=15.0, mtpot_limit=5.0)}) == 2
