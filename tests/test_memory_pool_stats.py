"""Tests for the memory timeline accounting."""

from __future__ import annotations

import pytest

from repro.memory.pool_stats import MemoryTimeline


def record(timeline: MemoryTimeline, used: int, future: int, running: int = 1, queued: int = 0):
    timeline.record(
        time=float(len(timeline) + 1),
        used_tokens=used,
        future_required_tokens=future,
        running_requests=running,
        queued_requests=queued,
    )


class TestAverages:
    def test_empty_timeline_reports_zero(self):
        timeline = MemoryTimeline(token_capacity=100)
        assert timeline.average_consumed_fraction == 0.0
        assert timeline.average_future_required_fraction == 0.0

    def test_average_consumed_fraction(self):
        timeline = MemoryTimeline(token_capacity=100)
        record(timeline, used=50, future=60)
        record(timeline, used=70, future=80)
        assert timeline.average_consumed_fraction == pytest.approx(0.6)
        assert timeline.average_future_required_fraction == pytest.approx(0.7)

    def test_idle_steps_excluded_from_averages(self):
        timeline = MemoryTimeline(token_capacity=100)
        record(timeline, used=80, future=90)
        record(timeline, used=0, future=0, running=0)
        assert timeline.average_consumed_fraction == pytest.approx(0.8)


class TestLength:
    def test_len(self):
        timeline = MemoryTimeline(token_capacity=100)
        record(timeline, used=1, future=1)
        assert len(timeline) == 1


def columns(timeline: MemoryTimeline) -> tuple[list, ...]:
    return (
        timeline.times,
        timeline.used_tokens,
        timeline.future_required_tokens,
        timeline.running_requests,
        timeline.queued_requests,
    )


class TestRecordJump:
    """A jump's closed-form rows equal the rows of one ``record`` per iteration."""

    @pytest.mark.parametrize("steps", [1, 5])
    def test_jump_equals_sequential_records(self, steps):
        jumped = MemoryTimeline(token_capacity=1000)
        sequential = MemoryTimeline(token_capacity=1000)
        for timeline in (jumped, sequential):
            record(timeline, used=40, future=90, running=2, queued=1)
            record(timeline, used=0, future=0, running=0, queued=3)
        times = [2.5 + 0.125 * k for k in range(1, steps + 1)]
        jumped.record_jump(
            times=times,
            first_used_tokens=37,
            used_tokens_per_step=3,
            future_required_tokens=120,
            running_requests=3,
            queued_requests=4,
        )
        for k, time in enumerate(times, start=1):
            sequential.record(
                time=time,
                used_tokens=37 + 3 * k,
                future_required_tokens=120,
                running_requests=3,
                queued_requests=4,
            )
        assert columns(jumped) == columns(sequential)
        assert len(jumped) == 2 + steps
