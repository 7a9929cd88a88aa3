"""Tests for windowed output-length distribution similarity (Fig. 3/4 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import WINDOW_SIZE
from repro.metrics.similarity import (
    adjacent_window_similarity,
    cosine_similarity,
    default_bin_edges,
    length_histogram,
    partition_windows,
    window_similarity_matrix,
)
from repro.workloads.burstgpt import generate_api_trace, generate_conversation_trace


class TestHistogramBasics:
    def test_histogram_normalised(self):
        edges = default_bin_edges(1000)
        hist = length_histogram([1, 5, 10, 200, 900], edges)
        assert hist.sum() == pytest.approx(1.0)

    def test_empty_histogram_is_zero(self):
        edges = default_bin_edges(100)
        assert length_histogram([], edges).sum() == 0.0

    def test_default_bin_edges_validation(self):
        with pytest.raises(ValueError):
            default_bin_edges(1)

    def test_default_bin_edges_are_zero_then_64_geometric_edges(self):
        edges = default_bin_edges(8192)
        assert len(edges) == 65
        assert edges[0] == 0.0 and edges[1] == 1.0
        assert edges[-1] == pytest.approx(8192)
        np.testing.assert_allclose(edges[2:] / edges[1:-1], 8192 ** (1 / 63))

    def test_default_bin_edges_monotone(self):
        edges = default_bin_edges(4096)
        assert np.all(np.diff(edges) > 0)


class TestCosineSimilarity:
    def test_identical_histograms(self):
        hist = np.array([0.2, 0.3, 0.5])
        assert cosine_similarity(hist, hist) == pytest.approx(1.0)

    def test_orthogonal_histograms(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_histogram(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.random(10), rng.random(10)
            assert 0.0 <= cosine_similarity(a, b) <= 1.0 + 1e-12


class TestWindowPartitioning:
    def test_partition_drops_trailing_partial_window(self):
        windows = partition_windows(list(range(25)), window_size=10)
        assert len(windows) == 2
        assert list(windows[0]) == list(range(10))

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            partition_windows([1, 2, 3], 0)


class TestSimilarityMatrix:
    def test_matrix_is_symmetric_with_unit_diagonal(self):
        lengths = generate_conversation_trace(6000, seed=1).output_lengths
        sim = window_similarity_matrix(lengths)
        matrix = sim.matrix
        assert matrix.shape == (6, 6)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 1.0)

    def test_stationary_trace_is_globally_similar(self):
        lengths = generate_conversation_trace(6000, seed=2).output_lengths
        sim = window_similarity_matrix(lengths)
        assert sim.global_mean() > 0.9
        assert sim.diagonal_mean() > 0.9

    def test_drifting_trace_diagonal_beats_global(self):
        # The paper's key observation: for API traces, adjacent windows stay
        # similar while distant windows drift apart.
        lengths = generate_api_trace(24_000, seed=3, drift_period=8_000).output_lengths
        sim = window_similarity_matrix(lengths)
        assert sim.diagonal_mean() > sim.global_mean()
        assert sim.diagonal_mean() > 0.8

    def test_bins_reach_the_trace_maximum(self):
        # Both windows share their short half; their long halves (9000 and
        # 20000 tokens) lie past 8192, in two different bins up to the
        # trace's maximum.  Bins that stopped at 8192 would drop both long
        # halves and call the windows identical.
        half = WINDOW_SIZE // 2
        lengths = [5] * half + [9000] * half + [5] * half + [20_000] * half
        sim = window_similarity_matrix(lengths)
        assert sim.matrix[0, 1] == pytest.approx(0.5)

    def test_too_few_windows(self):
        sim = window_similarity_matrix(list(range(1, WINDOW_SIZE)))
        assert sim.num_windows == 0
        assert sim.global_mean() == 0.0
        assert sim.diagonal_mean() == 0.0


class TestAdjacentWindowSimilarity:
    def test_stationary_trace_high_similarity(self):
        lengths = generate_conversation_trace(8000, seed=4).output_lengths
        result = adjacent_window_similarity(lengths, historical_window=1000, running_window=500)
        assert result.diagonal_mean > 0.9

    def test_drifting_trace_diagonal_exceeds_global(self):
        lengths = generate_api_trace(30_000, seed=5, drift_period=8_000).output_lengths
        result = adjacent_window_similarity(lengths, historical_window=1000, running_window=500)
        assert result.diagonal_mean > result.global_mean

    def test_bins_reach_the_trace_maximum(self):
        lengths = [5] * 5 + [9000] * 5 + [5] * 5 + [20_000] * 5
        result = adjacent_window_similarity(lengths, historical_window=10, running_window=10)
        assert result.diagonal_mean == pytest.approx(0.5)

    def test_trace_too_short_returns_zero(self):
        result = adjacent_window_similarity([10, 20, 30], historical_window=100, running_window=100)
        assert result.diagonal_mean == 0.0
        assert result.global_mean == 0.0

    def test_rejects_non_positive_windows(self):
        with pytest.raises(ValueError):
            adjacent_window_similarity([1, 2, 3], historical_window=0, running_window=1)

    def test_result_carries_window_sizes(self):
        lengths = generate_conversation_trace(4000, seed=6).output_lengths
        result = adjacent_window_similarity(lengths, historical_window=800, running_window=400)
        assert result.historical_window == 800
        assert result.running_window == 400
