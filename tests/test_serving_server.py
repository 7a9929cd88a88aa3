"""Integration tests for the serving simulator event loop."""

from __future__ import annotations

import pytest

from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.conservative import ConservativeScheduler
from repro.core.past_future import PastFutureScheduler
from repro.serving.results import RunResult
from repro.serving.server import ServingSimulator, SimulationLimits
from repro.serving.sla import SLASpec
from repro.workloads.arrivals import assign_poisson_arrivals
from repro.workloads.spec import RequestSpec, Workload
from tests.conftest import make_workload


def simulator(platform_7b, scheduler, capacity=1024, **kwargs) -> ServingSimulator:
    return ServingSimulator(
        platform=platform_7b,
        scheduler=scheduler,
        token_capacity_override=capacity,
        **kwargs,
    )


class TestClosedLoopRuns:
    def test_all_requests_complete(self, platform_7b):
        sim = simulator(platform_7b, AggressiveScheduler())
        result = sim.run_closed_loop(make_workload(30, output_length=8), num_clients=6)
        assert result.termination == "drained"
        assert result.completed
        assert len(result.finished_requests) == 30
        assert result.duration > 0
        assert result.num_clients == 6

    def test_tokens_accounted(self, platform_7b):
        workload = make_workload(20, output_length=10)
        sim = simulator(platform_7b, AggressiveScheduler())
        result = sim.run_closed_loop(workload, num_clients=4)
        assert result.total_output_tokens == 20 * 10

    def test_arrival_times_respect_closed_loop(self, platform_7b):
        sim = simulator(platform_7b, AggressiveScheduler())
        result = sim.run_closed_loop(make_workload(12, output_length=6), num_clients=3)
        arrivals = sorted(r.arrival_time for r in result.requests)
        # Exactly three requests arrive at time zero (one per client).
        assert sum(1 for a in arrivals if a == 0.0) == 3
        assert all(a >= 0.0 for a in arrivals)

    def test_more_clients_do_not_slow_down_small_workload(self, platform_7b):
        workload = make_workload(24, output_length=8)
        few = simulator(platform_7b, AggressiveScheduler(), capacity=8192).run_closed_loop(workload, 2)
        many = simulator(platform_7b, AggressiveScheduler(), capacity=8192).run_closed_loop(workload, 12)
        assert many.duration <= few.duration

    def test_past_future_scheduler_end_to_end(self, platform_7b, small_decode_heavy_workload):
        sim = simulator(platform_7b, PastFutureScheduler(seed=1), capacity=2048)
        result = sim.run_closed_loop(small_decode_heavy_workload, num_clients=8)
        assert result.completed
        assert len(result.finished_requests) == len(small_decode_heavy_workload)

    def test_memory_never_exceeds_capacity(self, platform_7b, small_decode_heavy_workload):
        sim = simulator(platform_7b, AggressiveScheduler(watermark=1.0), capacity=1024)
        result = sim.run_closed_loop(small_decode_heavy_workload, num_clients=12)
        assert result.memory_timeline is not None
        assert max(result.memory_timeline.used_tokens) <= result.memory_timeline.token_capacity


class TestOpenLoopRuns:
    def test_poisson_run_completes(self, platform_7b):
        sim = simulator(platform_7b, AggressiveScheduler(), capacity=4096)
        result = sim.run_open_loop(assign_poisson_arrivals(make_workload(20, output_length=6), 50.0, seed=3))
        assert result.completed
        assert len(result.finished_requests) == 20
        assert result.num_clients == 0

    def test_low_rate_is_mostly_idle_but_finishes(self, platform_7b):
        sim = simulator(platform_7b, AggressiveScheduler(), capacity=4096)
        result = sim.run_open_loop(assign_poisson_arrivals(make_workload(5, output_length=4), 2.0, seed=4))
        assert result.completed
        assert result.duration > 1.0


class TestSafetyLimits:
    def test_max_steps_terminates_run(self, platform_7b):
        sim = simulator(
            platform_7b,
            AggressiveScheduler(),
            capacity=2048,
            limits=SimulationLimits(max_steps=5),
        )
        result = sim.run_closed_loop(make_workload(50, output_length=50, max_new_tokens=64), num_clients=10)
        assert result.termination == "max_steps"
        assert not result.completed

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_max_time_terminates_run(self, platform_7b, fast_path):
        # A jump stops at the time limit just as a reference step does.
        sim = simulator(
            platform_7b,
            AggressiveScheduler(),
            capacity=2048,
            limits=SimulationLimits(max_time=0.5),
            fast_path=fast_path,
        )
        result = sim.run_closed_loop(make_workload(50, output_length=50, max_new_tokens=64), num_clients=10)
        assert result.termination == "max_time"
        assert not result.completed
        assert result.duration >= 0.5
        assert len(result.finished_requests) < 50

    def test_completed_is_a_read_only_view_of_termination(self):
        result = RunResult(scheduler="s", workload="w", platform="p", num_clients=1, duration=0.0)
        assert result.termination == "drained" and result.completed
        stalled = RunResult(
            scheduler="s", workload="w", platform="p", num_clients=1, duration=0.0, termination="stall"
        )
        assert not stalled.completed
        with pytest.raises(AttributeError):
            stalled.completed = True

    def test_reached_names_the_limit_hit_and_checks_steps_first(self):
        limits = SimulationLimits(max_steps=10, max_time=2.0)
        assert limits.reached(9, 1.99) is None
        assert limits.reached(10, 1.0) == "max_steps"
        assert limits.reached(3, 2.0) == "max_time"
        assert limits.reached(10, 2.0) == "max_steps"

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_steps": 0},
            {"max_steps": -3},
            {"max_time": 0.0},
            {"max_time": -1.0},
            {"max_time": float("nan")},
        ],
    )
    def test_invalid_limits_fail_at_construction(self, limits):
        # max_steps=0 used to end every run after one iteration, and a NaN
        # max_time silently disabled the time limit.
        with pytest.raises(ValueError):
            SimulationLimits(**limits)

    def test_infinite_max_time_disables_the_time_limit(self, platform_7b):
        sim = simulator(platform_7b, AggressiveScheduler(), limits=SimulationLimits(max_time=float("inf")))
        assert sim.run_closed_loop(make_workload(4, output_length=4), num_clients=2).completed

    def test_nan_request_rate_fails_instead_of_hanging(self):
        # Open loop replays stamped times; the stamper refuses a NaN rate.
        with pytest.raises(ValueError, match="request_rate"):
            assign_poisson_arrivals(make_workload(4, output_length=4), float("nan"))

    def test_stall_guard_stops_unschedulable_workload(self, platform_7b):
        # A scheduler that never admits leaves the engine idle with requests
        # waiting; the stall guard ends the run instead of spinning forever.
        class NeverAdmit(ConservativeScheduler):
            def schedule(self, context):
                return []

        sim = simulator(platform_7b, NeverAdmit(), capacity=256)
        result = sim.run_closed_loop(make_workload(3, output_length=4), num_clients=2)
        assert result.termination == "stall"
        assert not result.completed
        assert result.finished_requests == []
        assert result.engine_stats.total_finished == 0

    def test_request_larger_than_the_pool_is_refused_at_submit(self, platform_7b):
        # Prompt plus output must fit the pool, or the request could never
        # finish and would block every request queued behind it.
        giant = Workload(
            name="giant",
            requests=[
                RequestSpec(request_id="g0", input_length=5000, output_length=4, max_new_tokens=8)
            ],
        )
        sim = simulator(platform_7b, ConservativeScheduler(), capacity=256)
        with pytest.raises(ValueError, match=r"g0 needs 5004 KV tokens.*capacity of 256"):
            sim.run_closed_loop(giant, num_clients=1)

    @pytest.mark.parametrize("scheduler_factory", [
        AggressiveScheduler,
        ConservativeScheduler,
        lambda: PastFutureScheduler(seed=0),
    ])
    def test_pool_sized_request_is_accepted_and_finishes(self, platform_7b, scheduler_factory):
        # The bound is exact: prompt + output == capacity still finishes.
        exact = Workload(
            name="exact",
            requests=[
                RequestSpec(request_id="e0", input_length=156, output_length=100, max_new_tokens=100),
                RequestSpec(request_id="e1", input_length=10, output_length=4, max_new_tokens=4),
            ],
        )
        result = simulator(platform_7b, scheduler_factory(), capacity=256).run_closed_loop(
            exact, num_clients=1
        )
        assert result.completed
        assert len(result.finished_requests) == 2
        over = Workload(
            name="over",
            requests=[
                RequestSpec(request_id="o0", input_length=157, output_length=100, max_new_tokens=100)
            ],
        )
        with pytest.raises(ValueError, match="o0 needs 257 KV tokens"):
            simulator(platform_7b, scheduler_factory(), capacity=256).run_closed_loop(
                over, num_clients=1
            )

    def test_simulator_is_single_use(self, platform_7b):
        # A result holds its engine's stats object: a second run on the same
        # simulator would rewrite the first result, so it must refuse.
        sim = simulator(platform_7b, AggressiveScheduler(), capacity=4096)
        first = sim.run_closed_loop(make_workload(12, output_length=4), num_clients=3)
        assert first.engine_stats.total_finished == 12
        with pytest.raises(RuntimeError, match="single-use"):
            sim.run_open_loop(assign_poisson_arrivals(make_workload(12, output_length=4), 50.0))
        assert first.engine_stats.total_finished == 12


class TestRunResultMetrics:
    def test_goodput_equals_throughput_when_sla_met(self, platform_7b):
        sim = simulator(platform_7b, ConservativeScheduler(), capacity=8192)
        result = sim.run_closed_loop(make_workload(16, output_length=8), num_clients=4)
        sla = SLASpec(ttft_limit=1e6, mtpot_limit=1e6)
        assert result.goodput(sla) == pytest.approx(result.throughput())

    def test_goodput_zero_under_impossible_sla(self, platform_7b):
        sim = simulator(platform_7b, ConservativeScheduler(), capacity=8192)
        result = sim.run_closed_loop(make_workload(16, output_length=8), num_clients=4)
        sla = SLASpec(ttft_limit=1e-9, mtpot_limit=1e-9)
        assert result.goodput(sla) == 0.0

    def test_describe_mentions_counts(self, platform_7b):
        sim = simulator(platform_7b, AggressiveScheduler(), capacity=4096)
        result = sim.run_closed_loop(make_workload(8, output_length=4), num_clients=2)
        text = result.describe()
        assert "8 requests" in text
        assert "evictions" in text

    def test_latency_summary_counts_finished(self, platform_7b):
        sim = simulator(platform_7b, AggressiveScheduler(), capacity=4096)
        result = sim.run_closed_loop(make_workload(10, output_length=5), num_clients=5)
        summary = result.latency_summary()
        assert summary.count == 10
        assert summary.mean_ttft > 0
        assert summary.p99_mtpot >= summary.mean_tpot
