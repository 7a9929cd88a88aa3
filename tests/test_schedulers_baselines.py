"""Tests for the conservative, aggressive, and oracle baseline schedulers."""

from __future__ import annotations

import pytest

from repro.engine.request import Request
from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.conservative import ConservativeScheduler
from repro.schedulers.oracle import OracleScheduler
from tests.conftest import make_spec
from tests.helpers import SchedulerQueue


def make_request(request_id: str, input_length: int, output_length: int,
                 max_new_tokens: int = 256) -> Request:
    return Request(
        spec=make_spec(
            request_id=request_id,
            input_length=input_length,
            output_length=output_length,
            max_new_tokens=max_new_tokens,
        ),
        arrival_time=0.0,
    )


class TestConservativeScheduler:
    def test_rejects_non_positive_overcommit(self):
        with pytest.raises(ValueError):
            ConservativeScheduler(overcommit=0.0)

    def test_admits_only_worst_case_fitting_requests(self):
        scheduler = ConservativeScheduler()
        # Each request's worst case is 10 + 100 = 110 tokens.
        waiting = [make_request(f"w{i}", 10, 5, max_new_tokens=100) for i in range(5)]
        context = SchedulerQueue(scheduler, waiting).context(token_capacity=350)
        admitted = scheduler.schedule(context)
        assert len(admitted) == 3

    def test_overcommit_admits_more(self):
        waiting = [make_request(f"w{i}", 10, 5, max_new_tokens=100) for i in range(5)]
        strict = ConservativeScheduler(overcommit=1.0)
        relaxed = ConservativeScheduler(overcommit=1.5)
        strict_count = len(strict.schedule(SchedulerQueue(strict, waiting).context(token_capacity=350)))
        relaxed_count = len(relaxed.schedule(SchedulerQueue(relaxed, waiting).context(token_capacity=350)))
        assert relaxed_count > strict_count

    def test_accounts_for_running_worst_case(self):
        scheduler = ConservativeScheduler()
        running = [make_request("r0", 10, 5, max_new_tokens=100)]
        running[0].admit(0.0)
        waiting = [make_request("w0", 10, 5, max_new_tokens=100)]
        # Capacity fits one worst case but not two.
        context = SchedulerQueue(scheduler, waiting).context(running, token_capacity=150)
        assert scheduler.schedule(context) == []

    def test_empty_queue(self):
        scheduler = ConservativeScheduler()
        assert scheduler.schedule(SchedulerQueue(scheduler).context(token_capacity=100)) == []

    def test_progress_guarantee(self):
        scheduler = ConservativeScheduler()
        # Worst case (10 + 200) exceeds capacity, but the prompt itself fits:
        # an empty system still admits the head request.
        waiting = [make_request("w0", 10, 5, max_new_tokens=200)]
        context = SchedulerQueue(scheduler, waiting).context(token_capacity=150)
        assert scheduler.schedule(context) == waiting

    def test_describe_mentions_overcommit(self):
        assert "150%" in ConservativeScheduler(overcommit=1.5).describe()
        assert "no overcommit" in ConservativeScheduler().describe()


class TestConservativeBatchCap:
    """The static batch (Table 2's "Origin" profile) is one more refusal of the fit test."""

    @staticmethod
    def _context(scheduler, num_running: int, num_waiting: int):
        # Worst cases of 32 + 64 tokens: ten of them fit the pool many times.
        running = [make_request(f"r{i}", 32, 16, max_new_tokens=64) for i in range(num_running)]
        waiting = [make_request(f"w{i}", 32, 16, max_new_tokens=64) for i in range(num_waiting)]
        return SchedulerQueue(scheduler, waiting).context(running, token_capacity=10_000)

    def test_unlimited_by_default(self):
        scheduler = ConservativeScheduler()
        assert len(scheduler.schedule(self._context(scheduler, 0, 7))) == 7

    def test_cap_trims_to_free_slots(self):
        scheduler = ConservativeScheduler(max_running_requests=5)
        assert len(scheduler.schedule(self._context(scheduler, 3, 7))) == 2

    def test_cap_fills_an_empty_batch(self):
        scheduler = ConservativeScheduler(max_running_requests=5)
        assert len(scheduler.schedule(self._context(scheduler, 0, 7))) == 5

    def test_full_batch_admits_nothing(self):
        scheduler = ConservativeScheduler(max_running_requests=3)
        assert scheduler.schedule(self._context(scheduler, 3, 7)) == []

    def test_overfull_batch_admits_nothing(self):
        scheduler = ConservativeScheduler(max_running_requests=2)
        assert scheduler.schedule(self._context(scheduler, 3, 7)) == []

    def test_full_batch_proves_window(self):
        # The head fits the pool, so only the full batch proves no-admit.
        scheduler = ConservativeScheduler(max_running_requests=1)
        assert scheduler.saturated_no_admit_horizon(self._context(scheduler, 1, 1), 10) == 10

    def test_free_slot_does_not_prove_window(self):
        scheduler = ConservativeScheduler(max_running_requests=2)
        assert scheduler.saturated_no_admit_horizon(self._context(scheduler, 1, 1), 10) == 0


class TestAggressiveScheduler:
    def test_rejects_invalid_watermark(self):
        with pytest.raises(ValueError):
            AggressiveScheduler(watermark=0.0)
        with pytest.raises(ValueError):
            AggressiveScheduler(watermark=1.5)

    def test_admits_on_prompt_fit_ignoring_outputs(self):
        scheduler = AggressiveScheduler(watermark=1.0)
        # Prompts are 10 tokens; outputs would eventually need 100 more each,
        # but the aggressive scheduler ignores that and admits all of them.
        waiting = [make_request(f"w{i}", 10, 100, max_new_tokens=100) for i in range(5)]
        context = SchedulerQueue(scheduler, waiting).context(token_capacity=60)
        assert len(scheduler.schedule(context)) == 5

    def test_watermark_limits_admission(self):
        waiting = [make_request(f"w{i}", 10, 20) for i in range(10)]
        high = AggressiveScheduler(watermark=1.0)
        low = AggressiveScheduler(watermark=0.5)
        high_count = len(high.schedule(SchedulerQueue(high, waiting).context(token_capacity=100)))
        low_count = len(low.schedule(SchedulerQueue(low, waiting).context(token_capacity=100)))
        assert high_count == 10
        assert low_count == 5

    def test_counts_running_context(self):
        scheduler = AggressiveScheduler(watermark=1.0)
        running = [make_request("r0", 50, 20)]
        running[0].admit(0.0)
        waiting = [make_request("w0", 60, 20)]
        context = SchedulerQueue(scheduler, waiting).context(running, token_capacity=100)
        assert scheduler.schedule(context) == []

    def test_admits_more_than_conservative(self):
        waiting = [make_request(f"w{i}", 10, 5, max_new_tokens=500) for i in range(8)]
        aggressive = AggressiveScheduler()
        conservative = ConservativeScheduler()
        aggressive_count = len(
            aggressive.schedule(SchedulerQueue(aggressive, waiting).context(token_capacity=1000))
        )
        conservative_count = len(
            conservative.schedule(SchedulerQueue(conservative, waiting).context(token_capacity=1000))
        )
        assert aggressive_count > conservative_count

    def test_describe_mentions_watermark(self):
        assert "95%" in AggressiveScheduler(watermark=0.95).describe()


class TestOracleScheduler:
    def test_uses_true_lengths_not_caps(self):
        scheduler = OracleScheduler()
        # True outputs are tiny although the cap is huge; the oracle knows and
        # admits everything a conservative scheduler would refuse.
        waiting = [make_request(f"w{i}", 10, 2, max_new_tokens=1000) for i in range(5)]
        context = SchedulerQueue(scheduler, waiting).context(token_capacity=100)
        assert len(scheduler.schedule(context)) == 5

    def test_refuses_when_true_peak_exceeds_capacity(self):
        scheduler = OracleScheduler()
        running = [make_request("r0", 10, 80)]
        running[0].admit(0.0)
        waiting = [make_request("w0", 10, 80)]
        context = SchedulerQueue(scheduler, waiting).context(running, token_capacity=120)
        assert scheduler.schedule(context) == []

    def test_has_no_saturated_window_proof(self):
        scheduler = OracleScheduler()
        running = [make_request("r0", 10, 80)]
        running[0].admit(0.0)
        waiting = [make_request("w0", 10, 80)]
        context = SchedulerQueue(scheduler, waiting).context(running, token_capacity=120)
        assert scheduler.schedule(context) == []
        assert scheduler.saturated_no_admit_horizon(context, 10) == 0

    def test_admission_is_prefix(self):
        scheduler = OracleScheduler()
        waiting = [make_request(f"w{i}", 10, 30) for i in range(10)]
        context = SchedulerQueue(scheduler, waiting).context(token_capacity=200)
        admitted = scheduler.schedule(context)
        assert admitted == waiting[: len(admitted)]

    def test_describe(self):
        assert "oracle" in OracleScheduler().describe()
