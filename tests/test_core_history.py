"""Tests for the sliding-window output-length history."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import OutputLengthHistory


class TestConstruction:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            OutputLengthHistory(window_size=0)

    def test_rejects_non_positive_default_length(self):
        with pytest.raises(ValueError):
            OutputLengthHistory(default_length=0)

    def test_starts_empty(self):
        history = OutputLengthHistory()
        assert history.is_empty
        assert len(history) == 0


class TestRecording:
    def test_record_appends(self):
        history = OutputLengthHistory(window_size=10)
        history.record(5)
        history.record(7)
        assert len(history) == 2
        assert list(history.snapshot()) == [5, 7]

    def test_rejects_non_positive_lengths(self):
        history = OutputLengthHistory()
        with pytest.raises(ValueError):
            history.record(0)

    def test_window_evicts_oldest(self):
        history = OutputLengthHistory(window_size=3)
        history.extend([1, 2, 3, 4])
        assert list(history.snapshot()) == [2, 3, 4]

    def test_extend_matches_repeated_record(self):
        a = OutputLengthHistory(window_size=5)
        b = OutputLengthHistory(window_size=5)
        values = [3, 1, 4, 1, 5]
        a.extend(values)
        for value in values:
            b.record(value)
        assert list(a.snapshot()) == list(b.snapshot())

    def test_clear_resets(self):
        history = OutputLengthHistory()
        history.extend([10, 20])
        history.clear()
        assert history.is_empty


class TestSnapshotSeeding:
    def test_empty_snapshot_uses_default_length(self):
        history = OutputLengthHistory(default_length=512)
        assert list(history.snapshot()) == [512]

    def test_snapshot_is_int64(self):
        history = OutputLengthHistory()
        history.record(9)
        assert history.snapshot().dtype == np.int64

    def test_shared_sorted_snapshot_is_read_only(self):
        # The consult and the saturated horizon share one cached array: a
        # stray in-place write must raise, not skew every later draw.
        history = OutputLengthHistory()
        history.extend([9, 3])
        window = history.sorted_snapshot()
        with pytest.raises(ValueError, match="read-only"):
            window[0] = 1
        assert history.sorted_snapshot().tolist() == [3, 9]


class TestStatistics:
    def test_mean(self):
        history = OutputLengthHistory()
        history.extend([2, 4, 6])
        assert history.mean() == pytest.approx(4.0)

    def test_mean_of_empty_history_is_default(self):
        history = OutputLengthHistory(default_length=100)
        assert history.mean() == pytest.approx(100.0)

    def test_quantile(self):
        history = OutputLengthHistory()
        history.extend(list(range(1, 101)))
        assert history.quantile(0.5) == pytest.approx(50.5)

    def test_quantile_rejects_out_of_range(self):
        history = OutputLengthHistory()
        with pytest.raises(ValueError):
            history.quantile(1.5)
