"""Tests for the closed-loop client pool and open-loop arrival processes."""

from __future__ import annotations

import math

import pytest

from repro.serving.clients import ClosedLoopClientPool, OpenLoopArrivals
from tests.conftest import make_workload


class TestClosedLoopClientPool:
    def test_rejects_bad_parameters(self):
        workload = make_workload(5)
        with pytest.raises(ValueError):
            ClosedLoopClientPool(workload, num_clients=0)
        with pytest.raises(ValueError):
            ClosedLoopClientPool(workload, num_clients=1, think_time=-1.0)
        for think_time in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ClosedLoopClientPool(workload, num_clients=1, think_time=think_time)

    @pytest.mark.parametrize("think_time", [0.0, 2.5])
    def test_min_follow_up_delay_is_the_think_time(self, think_time):
        pool = ClosedLoopClientPool(make_workload(5), num_clients=2, think_time=think_time)
        assert pool.min_follow_up_delay == think_time

    def test_start_schedules_one_request_per_client(self):
        pool = ClosedLoopClientPool(make_workload(10), num_clients=4)
        pool.start(0.0)
        arrivals = pool.pop_arrivals(0.0)
        assert len(arrivals) == 4

    def test_completion_triggers_next_request(self):
        pool = ClosedLoopClientPool(make_workload(10), num_clients=2)
        pool.start(0.0)
        pool.pop_arrivals(0.0)
        pool.on_request_finished(5.0)
        assert pool.pop_arrivals(4.9) == []
        next_batch = pool.pop_arrivals(5.0)
        assert len(next_batch) == 1
        assert next_batch[0].arrival_time == 5.0

    def test_think_time_delays_next_request(self):
        pool = ClosedLoopClientPool(make_workload(10), num_clients=1, think_time=2.0)
        pool.start(0.0)
        pool.pop_arrivals(0.0)
        pool.on_request_finished(5.0)
        assert pool.pop_arrivals(6.9) == []
        assert len(pool.pop_arrivals(7.0)) == 1

    def test_fewer_requests_than_clients(self):
        pool = ClosedLoopClientPool(make_workload(2), num_clients=8)
        pool.start(0.0)
        assert len(pool.pop_arrivals(0.0)) == 2

    def test_exhausted_workload_schedules_nothing(self):
        pool = ClosedLoopClientPool(make_workload(2), num_clients=2)
        pool.start(0.0)
        pool.pop_arrivals(0.0)
        pool.on_request_finished(1.0)
        pool.on_request_finished(2.0)
        assert pool.pop_arrivals(10.0) == []
        assert pool.next_arrival_time() is None

    def test_next_arrival_time(self):
        pool = ClosedLoopClientPool(make_workload(5), num_clients=1)
        pool.start(3.0)
        assert pool.next_arrival_time() == 3.0
        pool.pop_arrivals(3.0)
        assert pool.next_arrival_time() is None


class TestOpenLoopArrivals:
    def test_poisson_arrival_times_monotone(self):
        arrivals = OpenLoopArrivals(make_workload(50), request_rate=5.0, seed=1)
        times = []
        while (now := arrivals.next_arrival_time()) is not None:
            times.extend(spec.arrival_time for spec in arrivals.pop_arrivals(now))
        assert times == sorted(times)
        assert len(times) == 50

    def test_poisson_rate_approximately_honoured(self):
        arrivals = OpenLoopArrivals(make_workload(2000), request_rate=10.0, seed=2)
        last = None
        while True:
            next_time = arrivals.next_arrival_time()
            if next_time is None:
                break
            last = next_time
            arrivals.pop_arrivals(next_time)
        # 2000 requests at 10 req/s should span roughly 200 seconds.
        assert 150 < last < 260

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            OpenLoopArrivals(make_workload(5), request_rate=0.0)

    def test_recorded_arrival_times_replayed(self):
        workload = make_workload(3)
        workload.requests = [spec.with_arrival(float(i)) for i, spec in enumerate(workload.requests)]
        arrivals = OpenLoopArrivals(workload)
        assert len(arrivals.pop_arrivals(0.0)) == 1
        assert len(arrivals.pop_arrivals(2.0)) == 2

    def test_missing_arrival_times_rejected(self):
        with pytest.raises(ValueError):
            OpenLoopArrivals(make_workload(3))

    def test_completions_spawn_nothing(self):
        arrivals = OpenLoopArrivals(make_workload(3), request_rate=1.0)
        assert arrivals.min_follow_up_delay == math.inf

    def test_start_is_noop(self):
        arrivals = OpenLoopArrivals(make_workload(3), request_rate=1.0)
        first = arrivals.next_arrival_time()
        arrivals.start(0.0)
        assert arrivals.next_arrival_time() == first is not None
