"""Tests for arrival-time assignment (Poisson and bursty traces)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.arrivals import (
    assign_bursty_arrivals,
    assign_diurnal_arrivals,
    assign_poisson_arrivals,
)
from tests.conftest import make_workload


class TestPoissonArrivals:
    def test_stamps_every_request(self):
        workload = assign_poisson_arrivals(make_workload(num_requests=50), request_rate=4.0, seed=1)
        assert all(spec.arrival_time is not None for spec in workload)

    def test_arrival_times_increase(self):
        workload = assign_poisson_arrivals(make_workload(num_requests=50), request_rate=4.0, seed=1)
        times = [spec.arrival_time for spec in workload]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_rate_controls_span(self):
        fast = assign_poisson_arrivals(make_workload(num_requests=200), request_rate=20.0, seed=2)
        slow = assign_poisson_arrivals(make_workload(num_requests=200), request_rate=2.0, seed=2)
        assert fast.requests[-1].arrival_time < slow.requests[-1].arrival_time

    def test_deterministic_per_seed(self):
        first = assign_poisson_arrivals(make_workload(), request_rate=4.0, seed=3)
        second = assign_poisson_arrivals(make_workload(), request_rate=4.0, seed=3)
        assert [s.arrival_time for s in first] == [s.arrival_time for s in second]

    def test_preserves_lengths_and_ids(self):
        base = make_workload(num_requests=10)
        stamped = assign_poisson_arrivals(base, request_rate=4.0)
        assert [s.request_id for s in stamped] == [s.request_id for s in base]
        assert [s.input_length for s in stamped] == [s.input_length for s in base]

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            assign_poisson_arrivals(make_workload(), request_rate=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_is_rejected(self, rate):
        # A NaN rate stamps NaN arrival times, which no simulator clock ever
        # reaches: the run would spin forever instead of failing.
        with pytest.raises(ValueError, match="request_rate"):
            assign_poisson_arrivals(make_workload(), request_rate=rate)


class TestBurstyArrivals:
    def test_arrival_times_increase(self):
        workload = assign_bursty_arrivals(
            make_workload(num_requests=128), base_rate=1.0, burst_rate=50.0, seed=5
        )
        times = [spec.arrival_time for spec in workload]
        assert times == sorted(times)

    def test_bursts_are_denser_than_lulls(self):
        workload = assign_bursty_arrivals(
            make_workload(num_requests=640),
            base_rate=1.0,
            burst_rate=100.0,
            burst_length=32,
            cycle_length=64,
            seed=5,
        )
        times = np.array([spec.arrival_time for spec in workload])
        gaps = np.diff(times)
        positions = np.arange(1, len(times)) % 64
        burst_gaps = gaps[positions < 32]
        lull_gaps = gaps[positions >= 32]
        assert burst_gaps.mean() < lull_gaps.mean() / 10

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            assign_bursty_arrivals(make_workload(), base_rate=0.0, burst_rate=10.0)
        with pytest.raises(ValueError, match="exceed"):
            assign_bursty_arrivals(make_workload(), base_rate=10.0, burst_rate=5.0)
        with pytest.raises(ValueError, match="burst_length"):
            assign_bursty_arrivals(
                make_workload(), base_rate=1.0, burst_rate=10.0, burst_length=9, cycle_length=8
            )

    @pytest.mark.parametrize("field", ["base_rate", "burst_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rates_are_rejected(self, field, value):
        rates = {"base_rate": 1.0, "burst_rate": 10.0, field: value}
        with pytest.raises(ValueError, match="rates"):
            assign_bursty_arrivals(make_workload(), **rates)

    def test_deterministic_per_seed(self):
        def times(seed):
            stamped = assign_bursty_arrivals(make_workload(), base_rate=1.0, burst_rate=10.0, seed=seed)
            return [s.arrival_time for s in stamped]

        assert times(7) == times(7)
        assert times(7) != times(8)

    def test_description_notes_burstiness(self):
        workload = assign_bursty_arrivals(make_workload(), base_rate=1.0, burst_rate=10.0)
        assert "bursty" in workload.description


class TestDiurnalArrivals:
    def stamp(self, num_requests=200, **overrides):
        kwargs = dict(
            base_rate=1.0,
            burst_rate=10.0,
            period=30.0,
            amplitude=0.5,
            burst_length=8,
            cycle_length=16,
            seed=3,
        )
        kwargs.update(overrides)
        return assign_diurnal_arrivals(make_workload(num_requests=num_requests), **kwargs)

    def test_arrival_times_increase(self):
        times = [s.arrival_time for s in self.stamp()]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_deterministic_per_seed(self):
        first = [s.arrival_time for s in self.stamp(seed=5)]
        second = [s.arrival_time for s in self.stamp(seed=5)]
        assert first == second
        assert first != [s.arrival_time for s in self.stamp(seed=6)]

    def test_zero_amplitude_matches_plain_bursty(self):
        # With a flat envelope the diurnal process degenerates to the bursty
        # one, drawing the identical exponential stream.
        flat = self.stamp(amplitude=0.0)
        bursty = assign_bursty_arrivals(
            make_workload(num_requests=200),
            base_rate=1.0,
            burst_rate=10.0,
            burst_length=8,
            cycle_length=16,
            seed=3,
        )
        assert [s.arrival_time for s in flat] == pytest.approx(
            [s.arrival_time for s in bursty]
        )

    def test_envelope_modulates_local_rate(self):
        # With bursts disabled (burst phase == whole cycle, rates equal) the
        # crest half-period must pack arrivals more densely than the trough.
        workload = assign_diurnal_arrivals(
            make_workload(num_requests=2000),
            base_rate=8.0,
            burst_rate=8.0001,
            period=40.0,
            amplitude=0.9,
            burst_length=16,
            cycle_length=16,
            seed=4,
        )
        times = np.array([s.arrival_time for s in workload])
        # First half-period (envelope above 1) vs second (below 1).
        crest = np.sum(times < 20.0)
        trough = np.sum((times >= 20.0) & (times < 40.0))
        assert crest > 1.5 * trough

    def test_description_notes_the_envelope(self):
        assert "diurnal" in self.stamp().description

    def test_validation(self):
        with pytest.raises(ValueError, match="period"):
            self.stamp(period=0.0)
        with pytest.raises(ValueError, match="amplitude"):
            self.stamp(amplitude=1.0)
        with pytest.raises(ValueError, match="burst_rate"):
            self.stamp(burst_rate=0.5)
        with pytest.raises(ValueError, match="rates"):
            self.stamp(base_rate=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_period_and_rates_are_rejected(self, value):
        with pytest.raises(ValueError, match="period"):
            self.stamp(period=value)
        with pytest.raises(ValueError, match="rates"):
            self.stamp(base_rate=value)
