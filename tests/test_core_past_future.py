"""Tests for the Past-Future scheduler's admission behaviour."""

from __future__ import annotations

import pytest

from repro.core.past_future import PastFutureScheduler
from repro.engine.request import Request
from tests.conftest import make_spec
from tests.helpers import SchedulerQueue, deliver, record


def make_request(request_id: str, input_length: int, output_length: int,
                 max_new_tokens: int = 4096, generated: int = 0) -> Request:
    request = Request(
        spec=make_spec(
            request_id=request_id,
            input_length=input_length,
            output_length=output_length,
            max_new_tokens=max_new_tokens,
        ),
        arrival_time=0.0,
    )
    if generated:
        request.admit(0.0)
        request.note_prefill(request.recompute_tokens)
        deliver(request, [0.0] * generated)
    return request


class TestConstruction:
    def test_rejects_invalid_reserved_fraction(self):
        with pytest.raises(ValueError):
            PastFutureScheduler(reserved_fraction=1.0)
        with pytest.raises(ValueError):
            PastFutureScheduler(reserved_fraction=-0.1)

    @pytest.mark.parametrize("seed", [2.5, "7", None, True, -1, -2, 2**63])
    def test_rejects_a_seed_that_is_not_an_int_in_range(self, seed):
        # Caught at construction, not at the first consultation mid-run.
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*63\), got "):
            PastFutureScheduler(seed=seed)

    @pytest.mark.parametrize("num_samples", [0, -3])
    def test_rejects_fewer_than_one_sample(self, num_samples):
        with pytest.raises(ValueError, match=f"num_samples must be at least 1, got {num_samples}"):
            PastFutureScheduler(num_samples=num_samples)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1])
    def test_accepts_the_full_seed_range(self, seed):
        assert PastFutureScheduler(seed=seed).seed == seed

    def test_describe_mentions_parameters(self):
        scheduler = PastFutureScheduler(reserved_fraction=0.05)
        description = scheduler.describe()
        assert "5%" in description
        assert "window=1000" in description


class TestHistoryFeedback:
    def test_finished_requests_enter_history(self):
        scheduler = PastFutureScheduler()
        request = make_request("a", 10, 5, generated=5)
        request.finish(1.0)
        scheduler.on_request_finished(request, 1.0)
        assert scheduler.history.snapshot().tolist() == [5]

    def test_on_run_start_clears_history(self):
        scheduler = PastFutureScheduler()
        scheduler.history.record(42)
        scheduler.on_run_start()
        assert scheduler.history.is_empty


class TestAdmission:
    def test_empty_queue_admits_nothing(self):
        scheduler = PastFutureScheduler()
        context = SchedulerQueue(scheduler).context()
        assert scheduler.schedule(context) == []

    def test_admits_when_memory_clearly_sufficient(self):
        scheduler = PastFutureScheduler(seed=1)
        record(scheduler.history, [8] * 100)
        waiting = [make_request(f"w{i}", 10, 8, max_new_tokens=64) for i in range(3)]
        context = SchedulerQueue(scheduler, waiting).context(token_capacity=10_000)
        admitted = scheduler.schedule(context)
        assert admitted == waiting

    def test_rejects_when_predicted_peak_exceeds_budget(self):
        scheduler = PastFutureScheduler(seed=1, reserved_fraction=0.0)
        # History says outputs are 100 tokens long.
        record(scheduler.history, [100] * 200)
        running = [make_request("r0", 50, 100, generated=10)]
        waiting = [make_request("w0", 50, 100)]
        # Capacity fits the running request's worst case (150) but not both
        # requests' predicted peaks.
        context = SchedulerQueue(scheduler, waiting).context(running, token_capacity=200)
        assert scheduler.schedule(context) == []

    def test_admission_is_queue_prefix(self):
        scheduler = PastFutureScheduler(seed=3)
        record(scheduler.history, [64] * 100)
        waiting = [make_request(f"w{i}", 40, 64, max_new_tokens=128) for i in range(10)]
        context = SchedulerQueue(scheduler, waiting).context(token_capacity=600)
        admitted = scheduler.schedule(context)
        assert admitted == waiting[: len(admitted)]
        assert 0 < len(admitted) < len(waiting)

    def test_reserved_fraction_reduces_admissions(self):
        waiting = [make_request(f"w{i}", 40, 64, max_new_tokens=128) for i in range(20)]
        counts = {}
        for reserved in (0.0, 0.3):
            scheduler = PastFutureScheduler(seed=5, reserved_fraction=reserved)
            record(scheduler.history, [64] * 100)
            context = SchedulerQueue(scheduler, waiting).context(token_capacity=1500)
            counts[reserved] = len(scheduler.schedule(context))
        assert counts[0.3] <= counts[0.0]

    def test_progress_guarantee_on_empty_system(self):
        # Even if the prediction says the head request cannot fit the budget,
        # an idle system must admit it to avoid starvation.
        scheduler = PastFutureScheduler(seed=2, reserved_fraction=0.5)
        record(scheduler.history, [4000] * 100)
        waiting = [make_request("w0", 600, 4000)]
        context = SchedulerQueue(scheduler, waiting).context(token_capacity=1000)
        admitted = scheduler.schedule(context)
        assert admitted == waiting

    def test_seeded_history_limits_admissions_before_first_completion(self):
        # At service start the distribution is seeded with the preset maximum
        # output length, so the scheduler behaves conservatively at first.
        scheduler = PastFutureScheduler(seed=6)
        waiting = [make_request(f"w{i}", 10, 100, max_new_tokens=1000) for i in range(10)]
        context = SchedulerQueue(scheduler, waiting).context(token_capacity=2500)
        admitted = scheduler.schedule(context)
        assert len(admitted) <= 2

    def test_admission_budget_scales_with_reserved(self):
        scheduler = PastFutureScheduler(reserved_fraction=0.1)
        context = SchedulerQueue(scheduler).context(token_capacity=1000)
        assert scheduler.admission_budget(context) == 900


class TestEvictedRequeue:
    def test_requeued_request_uses_conditional_prediction(self):
        scheduler = PastFutureScheduler(seed=7)
        record(scheduler.history, [50] * 100)
        # An evicted request that already generated 30 tokens: its prediction
        # must exceed 30, so the admission accounts for at least 20 more.
        evicted = make_request("e0", 20, 50, generated=30)
        evicted.evict()
        context = SchedulerQueue(scheduler, [evicted]).context(token_capacity=10_000)
        admitted = scheduler.schedule(context)
        assert admitted == [evicted]
