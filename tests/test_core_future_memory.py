"""Tests for the future-required-memory estimator (Eq. 2-4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.future_memory import (
    batched_peak_with_candidate,
    memory_timeline,
    peak_future_memory,
)
from tests.helpers import reference_peak


class TestPeakFutureMemory:
    def test_empty_batch_requires_no_memory(self):
        assert peak_future_memory([], []) == 0

    def test_single_request_peak_is_final_footprint(self):
        # A lone request peaks exactly when it finishes: current + remaining.
        assert peak_future_memory([10], [5]) == 15

    def test_paper_figure5_example_schedule_at_t(self):
        # Figure 5(a): three running requests plus a queued one admitted at t.
        # Entries are (current tokens, remaining outputs); the figure reports a
        # max memory usage of 19 when the new request is added at time t...
        at_t = peak_future_memory([6, 5, 4, 2], [1, 2, 3, 2])
        # ... and 18 when it is added one step later, after the shortest
        # request has released its memory (Figure 5(b)).
        at_t_plus_1 = max(
            peak_future_memory([6, 5, 4], [1, 2, 3]),
            peak_future_memory([7, 5, 2], [1, 2, 2]),
        )
        assert at_t > at_t_plus_1

    def test_two_requests_worked_example(self):
        # Request A: 4 current, 1 remaining.  Request B: 2 current, 3 remaining.
        # Sorted by remaining desc: B then A.
        # M_1 (B alone counted): 2 + 3*1 = 5
        # M_2 (A finishes first): 2 + 4 + 1*2 = 8
        # Peak = 8.
        assert peak_future_memory([4, 2], [1, 3]) == 8

    def test_peak_never_below_current_total(self):
        assert peak_future_memory([10, 20], [0, 0]) == 30

    def test_peak_never_exceeds_sum_of_final_footprints(self):
        current, remaining = [3, 5, 1], [7, 2, 9]
        upper = sum(current) + sum(remaining)
        assert peak_future_memory(current, remaining) <= upper

    def test_order_independence(self):
        current, remaining = [3, 5, 1, 8], [7, 2, 9, 8]
        assert peak_future_memory(current, remaining) == peak_future_memory(
            current[::-1], remaining[::-1]
        )


class TestPeakFutureMemoryInputs:
    def test_matches_plain_python_reference(self):
        rng = np.random.default_rng(3)
        current = rng.integers(0, 100, size=50).tolist()
        remaining = rng.integers(0, 100, size=50).tolist()
        assert peak_future_memory(current, remaining) == reference_peak(current, remaining)

    def test_returns_int(self):
        assert type(peak_future_memory((3, 1), (2, 4))) is int
        assert type(peak_future_memory([], [])) is int

    def test_ties_in_remaining(self):
        # Sorted (2, 3), (4, 3), (1, 1): M = 2+3, 6+6, 7+3; the tie order moves no peak.
        assert peak_future_memory([2, 4, 1], [3, 3, 1]) == 12
        assert peak_future_memory([4, 2, 1], [3, 3, 1]) == 12

    def test_allows_zero_remaining(self):
        assert peak_future_memory([5], [0]) == 5

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="same shape"):
            peak_future_memory([1, 2], [1])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            peak_future_memory([1, -2], [1, 1])

    def test_rejects_negative_remaining_tokens(self):
        with pytest.raises(ValueError, match="non-negative"):
            peak_future_memory([1], [-2])

    def test_empty_arrays(self):
        assert peak_future_memory((), ()) == 0


class TestBatchedPeakWithCandidate:
    """Every input is validated; row values are covered in ``tests/test_properties.py``."""

    CURRENT = np.array([[4, 2], [10, 0]])
    REMAINING = np.array([[1, 3], [5, 0]])

    def test_rejects_negative_candidate_current(self):
        with pytest.raises(ValueError, match="non-negative"):
            batched_peak_with_candidate(self.CURRENT, self.REMAINING, -1, np.array([2, 6]))

    def test_rejects_negative_candidate_remaining(self):
        with pytest.raises(ValueError, match="non-negative"):
            batched_peak_with_candidate(self.CURRENT, self.REMAINING, 3, np.array([2, -6]))

    def test_rejects_candidate_remaining_of_wrong_length(self):
        with pytest.raises(ValueError, match="one entry per row"):
            batched_peak_with_candidate(self.CURRENT, self.REMAINING, 3, np.array([2, 6, 1]))

    def test_rows_are_independent_batches(self):
        # A (0 current, 0 remaining) candidate sorts last and adds nothing.
        peaks = batched_peak_with_candidate(self.CURRENT, self.REMAINING, 0, np.array([0, 0]))
        assert peaks.dtype == np.int64
        assert peaks.tolist() == [8, 15]

    def test_zero_padding_leaves_a_row_peak_unchanged(self):
        current = np.array([[4, 2, 0, 0], [10, 0, 0, 0]])
        remaining = np.array([[1, 3, 0, 0], [5, 0, 0, 0]])
        padded = batched_peak_with_candidate(current, remaining, 0, np.array([0, 0]))
        assert padded.tolist() == [8, 15]

    def test_empty_rows(self):
        empty = np.zeros((3, 0), dtype=np.int64)
        assert batched_peak_with_candidate(empty, empty, 0, np.zeros(3)).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("shape", [(2,), (1, 2, 2)], ids=["1-D", "3-D"])
    def test_rejects_rows_that_are_not_two_dimensional(self, shape):
        rows = np.ones(shape, dtype=np.int64)
        with pytest.raises(ValueError, match="2 dimensions"):
            batched_peak_with_candidate(rows, rows, 3, np.array([2] * shape[0]))

    @pytest.mark.parametrize("operand", ["current", "remaining"])
    def test_rejects_negative_incumbent_counts(self, operand):
        current, remaining = self.CURRENT.copy(), self.REMAINING.copy()
        (current if operand == "current" else remaining)[1, 0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            batched_peak_with_candidate(current, remaining, 3, np.array([2, 6]))


class TestMemoryTimeline:
    def test_timeline_starts_at_current_sum(self):
        timeline = memory_timeline([5, 7], [3, 1])
        assert timeline[0] == 12

    def test_timeline_max_equals_peak(self):
        current, remaining = [5, 7, 2], [3, 1, 6]
        assert max(memory_timeline(current, remaining)) == peak_future_memory(current, remaining)

    def test_timeline_horizon_is_longest_remaining(self):
        assert len(memory_timeline([5, 7], [3, 1])) == 4  # steps 0..3

    def test_requests_release_memory_when_done(self):
        # One short and one long request: after the short one finishes the
        # occupancy drops below the peak.
        timeline = memory_timeline([10, 2], [1, 10])
        peak_step = timeline.index(max(timeline))
        assert timeline[-1] < timeline[peak_step]

    def test_empty_timeline(self):
        assert memory_timeline([], []) == [0]

    def test_rejects_negative_current_tokens(self):
        with pytest.raises(ValueError, match="non-negative"):
            memory_timeline([-1], [2])

    def test_rejects_negative_remaining_tokens(self):
        with pytest.raises(ValueError, match="non-negative"):
            memory_timeline([1], [-2])

    def test_rejects_mismatched_or_two_dimensional_input(self):
        with pytest.raises(ValueError):
            memory_timeline([1, 2], [1])
        with pytest.raises(ValueError):
            memory_timeline([[1, 2]], [[1, 2]])
