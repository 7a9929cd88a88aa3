"""Tests for the continuous-batching engine."""

from __future__ import annotations

import sys

import pytest

from repro.engine import request as request_module
from repro.engine.engine import InferenceEngine
from repro.engine.request import Request, RequestState
from repro.obs import events as obs
from repro.obs.tracer import RingTracer
from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.conservative import ConservativeScheduler
from repro.schedulers.fair import VirtualTokenCounterScheduler
from repro.schedulers.oracle import OracleScheduler
from tests.conftest import make_spec
from tests.helpers import assert_pool_ledger


def make_engine(platform_7b, scheduler=None, capacity=512, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        platform=platform_7b,
        scheduler=scheduler or AggressiveScheduler(watermark=1.0),
        token_capacity_override=capacity,
        **kwargs,
    )


def submit_requests(engine: InferenceEngine, count: int, input_length=16, output_length=8,
                    max_new_tokens=32) -> list[Request]:
    requests = []
    for index in range(count):
        request = Request(
            spec=make_spec(
                request_id=f"req-{index}",
                input_length=input_length,
                output_length=output_length,
                max_new_tokens=max_new_tokens,
            ),
            arrival_time=0.0,
        )
        engine.submit(request)
        requests.append(request)
    return requests


def run_until_drained(engine: InferenceEngine, max_steps: int = 10_000) -> float:
    time = 0.0
    for _ in range(max_steps):
        if not engine.has_work():
            return time
        result = engine.step(time)
        time = result.end_time
    raise AssertionError("engine did not drain")


class TestBasicOperation:
    def test_rejects_invalid_capacity(self, platform_7b):
        with pytest.raises(ValueError):
            make_engine(platform_7b, capacity=0)

    def test_rejects_invalid_chunk_size(self, platform_7b):
        with pytest.raises(ValueError):
            make_engine(platform_7b, chunked_prefill_tokens=0)

    def test_submit_only_queued_requests(self, platform_7b):
        engine = make_engine(platform_7b)
        request = Request(spec=make_spec(), arrival_time=0.0)
        request.admit(0.0)
        with pytest.raises(ValueError):
            engine.submit(request)

    def test_submit_refuses_a_request_the_pool_can_never_finish(self, platform_7b):
        engine = make_engine(platform_7b, capacity=64)
        too_big = Request(
            spec=make_spec(request_id="big", input_length=60, output_length=5), arrival_time=0.0
        )
        with pytest.raises(ValueError, match="big needs 65 KV tokens, more than the pool's capacity of 64"):
            engine.submit(too_big)
        assert engine.num_waiting == 0
        fits = Request(spec=make_spec(request_id="fits", input_length=59, output_length=5), arrival_time=0.0)
        engine.submit(fits)
        run_until_drained(engine)
        assert fits.is_finished

    def test_single_request_completes(self, platform_7b):
        engine = make_engine(platform_7b)
        [request] = submit_requests(engine, 1, input_length=10, output_length=4)
        run_until_drained(engine)
        assert request.is_finished
        assert request.generated_tokens == 4
        assert len(request.token_times) == 4
        assert engine.pool.used_tokens == 0

    def test_first_token_delivered_in_admission_step(self, platform_7b):
        engine = make_engine(platform_7b)
        [request] = submit_requests(engine, 1, input_length=10, output_length=4)
        result = engine.step(0.0)
        assert request in result.admitted
        assert request.generated_tokens == 1
        assert result.work.prefill_tokens == 10

    def test_time_advances_with_each_step(self, platform_7b):
        engine = make_engine(platform_7b)
        submit_requests(engine, 2, output_length=6)
        first = engine.step(0.0)
        second = engine.step(first.end_time)
        assert second.end_time > first.end_time > 0.0

    def test_decoding_steps_counted(self, platform_7b):
        engine = make_engine(platform_7b)
        submit_requests(engine, 3, output_length=5)
        run_until_drained(engine)
        assert engine.stats.decoding_steps >= 5
        assert engine.stats.total_finished == 3

    def test_idle_step_does_nothing(self, platform_7b):
        engine = make_engine(platform_7b)
        result = engine.step(0.0)
        assert result.was_idle
        assert result.duration == 0.0
        assert engine.stats.idle_steps == 1

    def test_memory_timeline_recorded(self, platform_7b):
        engine = make_engine(platform_7b)
        submit_requests(engine, 2, output_length=4)
        run_until_drained(engine)
        assert len(engine.memory_timeline) > 0
        assert engine.memory_timeline.token_capacity == 512


class TestContinuousBatching:
    def test_requests_join_mid_flight(self, platform_7b):
        engine = make_engine(platform_7b, capacity=4096)
        first = submit_requests(engine, 1, input_length=16, output_length=32)[0]
        result = engine.step(0.0)
        # A new request arrives after the first has started decoding.
        late = Request(spec=make_spec(request_id="late", input_length=16, output_length=8),
                       arrival_time=result.end_time)
        engine.submit(late)
        second = engine.step(result.end_time)
        assert late in second.admitted
        assert first.generated_tokens == 2  # kept decoding while late prefilled
        run_until_drained(engine)
        assert first.is_finished and late.is_finished

    def test_finished_requests_release_memory_for_queued_ones(self, platform_7b):
        # Capacity fits only one request's full footprint at a time.
        engine = make_engine(platform_7b, scheduler=OracleScheduler(), capacity=40)
        requests = submit_requests(engine, 3, input_length=16, output_length=8, max_new_tokens=16)
        run_until_drained(engine)
        assert all(r.is_finished for r in requests)
        assert engine.stats.total_evictions == 0

    def test_conservative_batch_cap_bounds_the_running_batch(self, platform_7b):
        # Memory fits all ten; only the static batch of 3 holds the rest back.
        scheduler = ConservativeScheduler(max_running_requests=3)
        engine = make_engine(platform_7b, scheduler=scheduler, capacity=4096)
        requests = submit_requests(engine, 10, input_length=16, output_length=8, max_new_tokens=16)
        time, batch_sizes = 0.0, []
        while engine.has_work():
            time = engine.step(time).end_time
            batch_sizes.append(engine.num_running)
        assert max(batch_sizes) == 3
        assert all(r.is_finished for r in requests)

    def test_used_tokens_equals_batch_context(self, platform_7b):
        engine = make_engine(platform_7b, capacity=4096)
        submit_requests(engine, 4, input_length=32, output_length=16)
        time = 0.0
        for _ in range(10):
            if not engine.has_work():
                break
            result = engine.step(time)
            time = result.end_time
            assert_pool_ledger(engine)


class TestEvictionBehaviour:
    def test_aggressive_overcommit_triggers_eviction(self, platform_7b):
        # Prompts fit, but outputs will not: the aggressive scheduler admits
        # both and the engine must evict one mid-decode.
        engine = make_engine(platform_7b, scheduler=AggressiveScheduler(watermark=1.0), capacity=64)
        requests = submit_requests(engine, 2, input_length=24, output_length=30, max_new_tokens=30)
        run_until_drained(engine)
        assert engine.stats.total_evictions >= 1
        assert all(r.is_finished for r in requests)
        assert sum(r.eviction_count for r in requests) == engine.stats.total_evictions

    def test_decode_pressure_drops_a_cached_prefix_before_a_running_request(self, platform_7b):
        engine = make_engine(platform_7b, capacity=64, prefix_cache_tokens=64)
        engine.pool.allocate(40)
        engine.prefix_cache.retain("s0", 0, 40)
        (request,) = submit_requests(engine, 1, input_length=16, output_length=20, max_new_tokens=20)
        run_until_drained(engine)
        assert request.is_finished
        assert engine.stats.total_evictions == 0
        assert engine.prefix_cache.stats.evictions == 1
        assert len(engine.prefix_cache) == 0
        assert engine.pool.used_tokens == 0

    def test_eviction_frees_the_whole_context(self, platform_7b):
        """An evicted request returns its prompt and its generated tokens."""
        engine = make_engine(platform_7b, scheduler=AggressiveScheduler(watermark=1.0), capacity=64)
        submit_requests(engine, 2, input_length=24, output_length=30, max_new_tokens=30)
        time = 0.0
        for _ in range(200):
            result = engine.step(time)
            time = result.end_time
            assert_pool_ledger(engine)
            if result.evicted:
                break
        (victim,) = result.evicted
        # It had decoded, so freeing only its prompt would break the ledger.
        assert victim.generated_tokens > 0
        assert engine.num_running == 1

    def test_evicted_request_requeued_at_front(self, platform_7b):
        engine = make_engine(platform_7b, scheduler=AggressiveScheduler(watermark=1.0), capacity=64)
        submit_requests(engine, 2, input_length=24, output_length=30, max_new_tokens=30)
        time = 0.0
        evicted_request = None
        for _ in range(200):
            if not engine.has_work():
                break
            result = engine.step(time)
            time = result.end_time
            if result.evicted:
                evicted_request = result.evicted[0]
                break
        assert evicted_request is not None
        assert engine.waiting[0] is evicted_request
        assert evicted_request.state is RequestState.QUEUED

    def test_oracle_scheduler_never_evicts(self, platform_7b):
        engine = make_engine(platform_7b, scheduler=OracleScheduler(), capacity=128)
        requests = submit_requests(engine, 6, input_length=16, output_length=24, max_new_tokens=48)
        run_until_drained(engine)
        assert engine.stats.total_evictions == 0
        assert all(r.is_finished for r in requests)

    def test_conservative_scheduler_never_evicts(self, platform_7b):
        engine = make_engine(platform_7b, scheduler=ConservativeScheduler(), capacity=128)
        requests = submit_requests(engine, 6, input_length=16, output_length=24, max_new_tokens=48)
        run_until_drained(engine)
        assert engine.stats.total_evictions == 0
        assert all(r.is_finished for r in requests)

    def test_eviction_recomputes_the_whole_context(self, platform_7b):
        # Every re-admission prefills the prompt again plus every token the
        # request had generated when it was evicted: nothing is swapped out.
        engine = make_engine(platform_7b, scheduler=AggressiveScheduler(watermark=1.0), capacity=64)
        requests = submit_requests(engine, 2, input_length=24, output_length=30, max_new_tokens=30)
        recomputed = 0
        time = 0.0
        for _ in range(10_000):
            if not engine.has_work():
                break
            result = engine.step(time)
            time = result.end_time
            recomputed += sum(24 + r.generated_tokens for r in result.evicted)
        assert engine.stats.total_evictions >= 1
        assert all(r.is_finished for r in requests)
        assert engine.stats.total_prefill_tokens == 2 * 24 + recomputed

    def test_same_step_admissions_tie_to_the_earliest_in_batch_order(self, platform_7b):
        # All three are admitted at t=0 and each prefill step delivers one
        # token: 3 x 17 = 51 of 60 tokens, then 3 a step, so the pool is
        # exactly full when the first request grows.  The three tie on
        # admission time; the earliest other than the grower goes.
        engine = make_engine(platform_7b, scheduler=AggressiveScheduler(watermark=1.0), capacity=60)
        first, second, third = submit_requests(engine, 3, input_length=16, output_length=30, max_new_tokens=30)
        time = 0.0
        for _ in range(10):
            result = engine.step(time)
            time = result.end_time
            if result.evicted:
                break
        assert first.admission_times == second.admission_times == third.admission_times == [0.0]
        assert result.evicted == [second]
        assert engine.batch == [first, third]


class BackOfQueueScheduler(AggressiveScheduler):
    """A scheduler that considers only the newest waiting request.

    Not a VTC subclass: VTC's per-tenant FIFOs only ever give up their
    heads, which this order does not take.
    """

    def _candidates(self, waiting):
        return [waiting[-1]]


class TestAdmissionByIdentity:
    def test_admitting_the_second_of_two_equal_requests_removes_the_second(self, platform_7b):
        engine = make_engine(platform_7b, scheduler=BackOfQueueScheduler())
        spec = make_spec()
        first = Request(spec=spec, arrival_time=0.0)
        second = Request(spec=spec, arrival_time=0.0)
        engine.submit(first)
        engine.submit(second)
        admitted = engine._admit(0.0)
        assert len(admitted) == 1 and admitted[0] is second
        assert len(engine.waiting) == 1 and engine.waiting[0] is first
        assert engine.batch[0] is second

    def test_admitting_a_request_the_queue_does_not_hold_raises(self, platform_7b):
        stranger = Request(spec=make_spec(request_id="stranger"), arrival_time=0.0)

        class StrangerScheduler(VirtualTokenCounterScheduler):
            def _candidates(self, waiting):
                return [stranger]

        engine = make_engine(platform_7b, scheduler=StrangerScheduler())
        submit_requests(engine, 2)
        with pytest.raises(RuntimeError, match="stranger, which is not in the waiting queue"):
            engine._admit(0.0)


class TestSchedulingContext:
    def test_prefix_hit_admission_charges_the_batch_not_the_cached_prefixes(self, platform_7b):
        """The consult's batch total is the pool's used tokens minus the parked prefixes."""
        engine = make_engine(platform_7b, capacity=64, prefix_cache_tokens=64)
        engine.pool.allocate(30)
        engine.prefix_cache.retain("s0", 0, 30)
        (resident,) = submit_requests(engine, 1, input_length=16, output_length=20, max_new_tokens=20)
        engine.step(0.0)
        spec = make_spec(
            request_id="turn-1",
            input_length=40,
            output_length=4,
            max_new_tokens=4,
            session_id="s0",
            session_stage=1,
        )
        follow_up = Request(spec=spec, arrival_time=0.0)
        engine.submit(follow_up)
        assert engine._scheduling_context().running_tokens == resident.current_context_tokens == 17
        # 17 + 40 fits the 64-token budget; charging the 30 cached tokens too
        # (87) would refuse the turn that reuses them.
        assert engine.step(1.0).admitted == [follow_up]
        assert engine.prefix_cache.stats.hits == 1


class TestAbortAll:
    def test_abort_all_frees_residents_and_cached_prefixes(self, platform_7b):
        engine = make_engine(platform_7b, capacity=64, prefix_cache_tokens=64)
        engine.pool.allocate(10)
        engine.prefix_cache.retain("s0", 0, 10)
        requests = submit_requests(engine, 3, input_length=16, output_length=20, max_new_tokens=20)
        engine.step(0.0)
        assert engine.num_running == 3 and engine.pool.used_tokens == 61
        aborted = engine.abort_all(1.0)
        assert aborted == requests
        assert engine.pool.used_tokens == 0
        assert len(engine.prefix_cache) == 0


class TestChunkedPrefill:
    def test_prefill_spread_over_steps(self, platform_7b):
        engine = make_engine(platform_7b, capacity=4096, chunked_prefill_tokens=16)
        [request] = submit_requests(engine, 1, input_length=64, output_length=4)
        first = engine.step(0.0)
        assert first.work.prefill_tokens == 16
        assert request.state is RequestState.PREFILLING
        assert request.generated_tokens == 0
        steps = 1
        time = first.end_time
        while request.generated_tokens == 0:
            result = engine.step(time)
            time = result.end_time
            steps += 1
        assert steps == 4  # 64 prompt tokens at 16 per step

    def test_a_prefilling_resident_gets_no_decode_token(self, platform_7b):
        engine = make_engine(platform_7b, capacity=4096, chunked_prefill_tokens=16)
        [decoding] = submit_requests(engine, 1, input_length=16, output_length=8)
        time = engine.step(0.0).end_time
        assert decoding.state is RequestState.DECODING and decoding.generated_tokens == 1
        prefilling = Request(spec=make_spec(request_id="long", input_length=64), arrival_time=time)
        engine.submit(prefilling)
        result = engine.step(time)
        assert engine.batch == [decoding, prefilling]
        assert result.work.prefill_tokens == 16
        assert decoding.generated_tokens == 2
        assert prefilling.state is RequestState.PREFILLING and prefilling.generated_tokens == 0

    def test_chunked_prefill_work_never_exceeds_budget(self, platform_7b):
        engine = make_engine(platform_7b, capacity=4096, chunked_prefill_tokens=32)
        submit_requests(engine, 5, input_length=48, output_length=4)
        time = 0.0
        while engine.has_work():
            result = engine.step(time)
            time = result.end_time
            assert result.work.prefill_tokens <= 32

    def test_all_requests_finish_with_chunking(self, platform_7b):
        engine = make_engine(platform_7b, capacity=4096, chunked_prefill_tokens=24)
        requests = submit_requests(engine, 4, input_length=50, output_length=6)
        run_until_drained(engine)
        assert all(r.is_finished for r in requests)


class TestDecodeSegments:
    """Decode tokens are read off the engine's end-time list, not streamed per request."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_finish_ties_put_decode_targets_before_completed_prefills(self, platform_7b, traced):
        # ``x`` is admitted after ``y`` but decodes from admission on (its
        # prefix hit covers the whole prompt), while ``y`` completes a
        # chunked prefill in the same iteration.  Both end there: the decode
        # target finishes first, as the per-token loop serves targets.
        tracer = RingTracer() if traced else None
        engine = make_engine(
            platform_7b, capacity=4096, chunked_prefill_tokens=32, prefix_cache_tokens=4096, tracer=tracer
        )
        turn = {"session_id": "s", "session_stages": 2}
        first = Request(
            spec=make_spec(request_id="x0", input_length=10, output_length=2, session_stage=0, **turn),
            arrival_time=0.0,
        )
        engine.submit(first)
        time = run_until_drained(engine)
        assert first.is_finished and engine.prefix_cache.resident_tokens == 12
        y = Request(spec=make_spec(request_id="y", input_length=40, output_length=1), arrival_time=time)
        engine.submit(y)
        time = engine.step(time).end_time
        assert y.state is RequestState.PREFILLING
        x = Request(
            spec=make_spec(request_id="x", input_length=12, output_length=1, session_stage=1, **turn),
            arrival_time=time,
        )
        engine.submit(x)
        result = engine.step(time)
        assert result.admitted == [x]
        assert result.finished == [x, y]
        assert (x.token_times, y.token_times) == ([result.end_time], [result.end_time])
        if traced:
            order = [
                (e.name, e.request_id)
                for e in tracer.events
                if e.name in (obs.REQUEST_FIRST_TOKEN, obs.REQUEST_FINISHED) and e.time == result.end_time
            ]
            assert order == [
                (obs.REQUEST_FIRST_TOKEN, "x"),
                (obs.REQUEST_FINISHED, "x"),
                (obs.REQUEST_FIRST_TOKEN, "y"),
                (obs.REQUEST_FINISHED, "y"),
            ]

    def test_event_free_step_and_jump_call_no_request_method(self, platform_7b):
        engine = make_engine(platform_7b, capacity=4096)
        requests = submit_requests(engine, 4, input_length=16, output_length=64, max_new_tokens=64)
        time = 0.0
        for _ in range(2):  # admit and prefill, then one uniform step
            time = engine.step(time).end_time
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == request_module.__file__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            result = engine.step(time)
            jump = engine.try_jump_any(result.end_time)
        finally:
            sys.setprofile(None)
        assert not (result.admitted or result.finished or result.evicted or result.work.prefill_tokens)
        assert jump is not None and jump.steps >= 2
        assert calls == []
        assert [r.generated_tokens for r in requests] == [3 + jump.steps] * 4
        assert requests[0].token_times[-1] == jump.end_time


class TestMultimodalAccounting:
    def test_images_counted_in_step_work(self, platform_7b):
        engine = make_engine(platform_7b, capacity=4096)
        request = Request(
            spec=make_spec(request_id="mm", input_length=16, output_length=4, image_tokens=64),
            arrival_time=0.0,
        )
        engine.submit(request)
        result = engine.step(0.0)
        assert result.work.images_encoded == 1
        assert result.work.prefill_tokens == 16 + 64
