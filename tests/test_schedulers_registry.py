"""Tests for the scheduler registry and its keyword validation."""

from __future__ import annotations

import pytest

from repro.core.past_future import PastFutureScheduler
from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.conservative import ConservativeScheduler
from repro.schedulers.oracle import OracleScheduler
from repro.schedulers.registry import SCHEDULER_REGISTRY, create_scheduler


class TestRegistry:
    def test_all_expected_names_present(self):
        assert sorted(SCHEDULER_REGISTRY) == [
            "aggressive",
            "conservative",
            "oracle",
            "past-future",
            "vtc",
            "weighted-vtc",
        ]

    def test_past_future_is_registered_directly(self):
        assert SCHEDULER_REGISTRY["past-future"] is PastFutureScheduler

    def test_create_past_future(self):
        scheduler = create_scheduler("past-future", reserved_fraction=0.1)
        assert isinstance(scheduler, PastFutureScheduler)
        assert scheduler.reserved_fraction == 0.1

    def test_create_aggressive(self):
        scheduler = create_scheduler("aggressive", watermark=0.9)
        assert isinstance(scheduler, AggressiveScheduler)
        assert scheduler.watermark == 0.9

    def test_create_conservative(self):
        scheduler = create_scheduler("conservative", overcommit=1.25)
        assert isinstance(scheduler, ConservativeScheduler)
        assert scheduler.overcommit == 1.25

    def test_create_oracle(self):
        assert isinstance(create_scheduler("oracle"), OracleScheduler)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            create_scheduler("nonexistent")


class TestBatchCapSetting:
    """Only the conservative scheduler takes a static batch size."""

    @pytest.mark.parametrize("cap", [0, -1])
    def test_conservative_cap_below_one_fails_at_construction(self, cap):
        # A cap of 0 would refuse every admission and stall the run.
        with pytest.raises(ValueError, match=rf"max_running_requests must be at least 1 or None, got {cap}"):
            create_scheduler("conservative", max_running_requests=cap)

    @pytest.mark.parametrize("name", ["aggressive", "oracle", "past-future", "vtc", "weighted-vtc"])
    def test_other_schedulers_reject_the_keyword(self, name):
        with pytest.raises(TypeError, match="max_running_requests"):
            create_scheduler(name, max_running_requests=8)


class TestRegistryKwargValidation:
    """The shared registry helper rejects unknown kwargs with a helpful error."""

    def test_unknown_kwarg_lists_accepted_names(self):
        import pytest

        from repro.schedulers.registry import create_scheduler

        with pytest.raises(TypeError, match="accepted") as excinfo:
            create_scheduler("aggressive", bogus_knob=1)
        assert "bogus_knob" in str(excinfo.value)

    def test_autoscale_policy_unknown_kwarg(self):
        import pytest

        from repro.serving.autoscale import create_autoscale_policy

        with pytest.raises(TypeError, match="accepted"):
            create_autoscale_policy("reactive", window_size=3)


class TestRegistrySuggestions:
    """Near-miss names and kwargs get a did-you-mean suggestion."""

    def test_misspelled_scheduler_name_suggests_closest(self):
        with pytest.raises(KeyError, match="did you mean 'aggressive'"):
            create_scheduler("agressive")

    def test_misspelled_kwarg_suggests_closest(self):
        with pytest.raises(TypeError, match="did you mean 'watermark'"):
            create_scheduler("aggressive", watermrak=0.9)

    def test_misspelled_past_future_kwarg_suggests_closest(self):
        with pytest.raises(TypeError, match="did you mean 'reserved_fraction'"):
            create_scheduler("past-future", reserved_fracton=0.1)

    def test_misspelled_router_name_suggests_closest(self):
        from repro.serving.routing import create_router

        with pytest.raises(KeyError, match="did you mean 'memory-aware'"):
            create_router("memory-awar")

    def test_no_suggestion_for_distant_name(self):
        with pytest.raises(KeyError) as excinfo:
            create_scheduler("zzzzzz")
        assert "did you mean" not in str(excinfo.value)
        # The sorted known-name list is still present for grepping.
        assert "known:" in str(excinfo.value)
