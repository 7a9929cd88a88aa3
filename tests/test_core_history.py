"""Tests for the sliding-window output-length history."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import WINDOW_SIZE, OutputLengthHistory
from tests.helpers import record


class TestConstruction:
    def test_rejects_non_positive_default_length(self):
        with pytest.raises(ValueError):
            OutputLengthHistory(default_length=0)

    def test_starts_empty(self):
        history = OutputLengthHistory()
        assert history.is_empty


class TestRecording:
    def test_record_appends(self):
        history = OutputLengthHistory()
        history.record(5)
        history.record(7)
        assert list(history.snapshot()) == [5, 7]

    def test_rejects_non_positive_lengths(self):
        history = OutputLengthHistory()
        with pytest.raises(ValueError):
            history.record(0)

    def test_window_evicts_oldest(self):
        # The window is the paper's last 1000 finished requests.
        history = OutputLengthHistory()
        record(history, range(1, WINDOW_SIZE + 3))
        assert list(history.snapshot()) == list(range(3, WINDOW_SIZE + 3))

    def test_clear_resets(self):
        history = OutputLengthHistory()
        record(history, [10, 20])
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
        record(history, [9, 3])
        window = history.sorted_snapshot()
        with pytest.raises(ValueError, match="read-only"):
            window[0] = 1
        assert history.sorted_snapshot().tolist() == [3, 9]


class TestStatistics:
    def test_mean(self):
        history = OutputLengthHistory()
        record(history, [2, 4, 6])
        assert history.mean() == pytest.approx(4.0)

    def test_mean_of_empty_history_is_default(self):
        history = OutputLengthHistory(default_length=100)
        assert history.mean() == pytest.approx(100.0)
