"""Tests for the output-length distribution predictor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import OutputLengthHistory
from repro.core.predictor import OutputLengthPredictor, aggregate_samples
from tests.helpers import history_of


def make_predictor(lengths, **kwargs) -> OutputLengthPredictor:
    return OutputLengthPredictor(history_of(lengths), **kwargs)


class TestConstruction:
    def test_empty_history_samples_its_default_length(self):
        predictor = OutputLengthPredictor(OutputLengthHistory(default_length=77))
        assert predictor.predict_new(5).tolist() == [77] * 5

    def test_samples_the_historys_cached_sorted_window(self):
        # One sort per window change, not one per predictor (one per consult).
        history = history_of([9, 2, 5])
        predictor = OutputLengthPredictor(history)
        assert predictor._sorted is history.sorted_snapshot()
        assert predictor._sorted.tolist() == [2, 5, 9]

    def test_rejects_non_positive_lengths(self):
        # The window refuses them, so a predictor never samples one.
        with pytest.raises(ValueError):
            make_predictor([4, 0, 2])

    def test_rejects_non_positive_num_samples(self):
        with pytest.raises(ValueError):
            make_predictor([1, 2], num_samples=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_two_entropy_words(self, seed):
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
            make_predictor([1, 2], seed=seed)

    def test_accepts_the_largest_seed(self):
        assert make_predictor([1, 2], seed=2**64 - 1).predict_new(1).size == 1


class TestDistribution:
    def test_exceedance_matches_counts(self):
        # Past generated=1 the window's mass is 0.75: two 2s and one 3, so
        # conditional samples split 2:1 between them; past 3 it is empty.
        predictor = make_predictor([1, 2, 2, 3], seed=4)
        samples = predictor.predict_running([1] * 3000)
        assert set(samples.tolist()) == {2, 3}
        assert float(np.mean(samples == 2)) == pytest.approx(2 / 3, abs=0.03)
        assert predictor.predict_running([3]).tolist() == [4]

    def test_support(self):
        predictor = make_predictor([5, 3, 3, 9], num_samples=1)
        assert set(predictor.predict_new(500).tolist()) == {3, 5, 9}


class TestPredictNew:
    def test_samples_come_from_history(self):
        lengths = [10, 20, 30]
        predictor = make_predictor(lengths, seed=1)
        samples = predictor.predict_new(200)
        assert set(samples.tolist()) <= set(lengths)

    def test_count_zero_returns_empty(self):
        predictor = make_predictor([10])
        assert predictor.predict_new(0).size == 0

    def test_negative_count_rejected(self):
        predictor = make_predictor([10])
        with pytest.raises(ValueError):
            predictor.predict_new(-1)

    def test_deterministic_for_fixed_seed(self):
        first = make_predictor([1, 5, 9, 13], seed=42).predict_new(50)
        second = make_predictor([1, 5, 9, 13], seed=42).predict_new(50)
        np.testing.assert_array_equal(first, second)

    def test_single_value_history_is_constant(self):
        predictor = make_predictor([77])
        assert set(predictor.predict_new(20).tolist()) == {77}

    @pytest.mark.parametrize("window", [1, 2, 7, 1000])
    @pytest.mark.parametrize("num_samples", [1, 3, 4])
    def test_equals_the_choice_draw_and_leaves_the_same_state(self, window, num_samples):
        """The largest of ``choice(window, (num_samples, count))``, drawn by ``integers``."""
        lengths = np.random.default_rng(window).integers(1, 60, window).tolist()  # ties for w > 59
        history = history_of(lengths)
        for seed in range(50):
            predictor = OutputLengthPredictor(history, seed=seed, num_samples=num_samples)
            rng = np.random.default_rng(seed)
            for count in (1, 5):
                drawn = rng.choice(history.sorted_snapshot(), size=(num_samples, count), replace=True)
                np.testing.assert_array_equal(predictor.predict_new(count), drawn.max(axis=0))
            assert predictor._rng.bit_generator.state == rng.bit_generator.state

    def test_samples_approximate_distribution(self):
        # With a large sample the empirical frequency of each value should be
        # close to its probability in the window.
        predictor = make_predictor([10] * 30 + [100] * 70, seed=3)
        samples = predictor.predict_new(5000)
        frequency_100 = float(np.mean(samples == 100))
        assert frequency_100 == pytest.approx(0.7, abs=0.05)


class TestPredictRunning:
    def test_conditional_samples_exceed_generated(self):
        predictor = make_predictor([5, 10, 20, 40], seed=0)
        generated = np.array([0, 4, 9, 19, 39])
        predictions = predictor.predict_running(generated)
        assert np.all(predictions > generated)

    def test_exhausted_history_falls_back_to_next_token(self):
        predictor = make_predictor([5, 10], seed=0)
        predictions = predictor.predict_running([50])
        assert predictions[0] == 51

    def test_empty_input_returns_empty(self):
        predictor = make_predictor([5, 10])
        assert predictor.predict_running([]).size == 0

    def test_rejects_negative_generated(self):
        predictor = make_predictor([5, 10])
        with pytest.raises(ValueError):
            predictor.predict_running([-1])

    def test_rejects_two_dimensional_generated(self):
        predictor = make_predictor([5, 10])
        with pytest.raises(ValueError):
            predictor.predict_running(np.zeros((2, 2), dtype=np.int64))

    def test_conditional_samples_come_from_tail(self):
        predictor = make_predictor([5, 10, 20, 40], seed=9)
        predictions = predictor.predict_running([10] * 500)
        assert set(predictions.tolist()) <= {20, 40}


class TestAggregation:
    def test_repeated_sampling_with_max_is_conservative(self):
        # More repeats with max-aggregation can only raise the prediction.
        lengths = list(range(1, 1001))
        single = make_predictor(lengths, seed=11, num_samples=1).predict_new(500).mean()
        repeated = make_predictor(lengths, seed=11, num_samples=10).predict_new(500).mean()
        assert repeated >= single

    def test_aggregate_samples_keeps_each_requests_largest_sample(self):
        # Shape (..., num_samples, n): the sample axis is -2, and each
        # request keeps its own maximum, never a neighbour's.
        samples = np.array([[[3, 9, 1], [7, 2, 1]], [[0, 0, 5], [4, 4, 4]]])
        np.testing.assert_array_equal(aggregate_samples(samples), [[7, 9, 1], [4, 4, 5]])
