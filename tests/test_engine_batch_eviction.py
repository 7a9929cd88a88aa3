"""Tests for the running-batch container and the engine's eviction rule."""

from __future__ import annotations

from repro.engine.batch import RunningBatch
from repro.engine.engine import InferenceEngine
from repro.engine.request import Request, RequestState
from repro.schedulers.aggressive import AggressiveScheduler
from tests.conftest import make_spec


def running_request(request_id: str, admit_time: float, generated: int = 0) -> Request:
    request = Request(
        spec=make_spec(request_id=request_id, input_length=10, output_length=20, max_new_tokens=40),
        arrival_time=0.0,
    )
    request.admit(admit_time)
    request.note_prefill(request.recompute_tokens)
    for step in range(generated):
        request.deliver_token(admit_time + step + 1)
    return request


class TestRunningBatch:
    def test_add_remove_len(self):
        batch = RunningBatch()
        a = running_request("a", 1.0)
        batch.add(a)
        assert len(batch) == 1
        assert a in batch
        batch.remove(a)
        assert batch.is_empty

    def test_decoding_and_prefilling_views(self):
        batch = RunningBatch()
        decoding = running_request("a", 1.0)
        prefilling = Request(spec=make_spec(request_id="b"), arrival_time=0.0)
        prefilling.admit(2.0)
        batch.add(decoding)
        batch.add(prefilling)
        assert batch.decoding == [decoding]
        assert batch.prefilling == [prefilling]

    def test_total_context_tokens(self):
        batch = RunningBatch()
        batch.add(running_request("a", 1.0, generated=5))
        batch.add(running_request("b", 2.0, generated=2))
        assert batch.total_context_tokens == (10 + 5) + (10 + 2)


def full_engine(platform_7b, residents: list[Request]) -> InferenceEngine:
    """An engine whose pool is exactly filled by ``residents``, in batch order."""
    engine = InferenceEngine(
        platform=platform_7b,
        scheduler=AggressiveScheduler(watermark=1.0),
        token_capacity_override=sum(r.current_context_tokens for r in residents),
    )
    for request in residents:
        engine.batch.add(request)
        engine.pool.allocate(request.current_context_tokens)
    assert engine.pool.free_tokens == 0
    return engine


class TestEvictionRule:
    """``InferenceEngine._make_room``: newest admission first, recompute on return."""

    def _residents(self):
        old = running_request("old", 1.0, generated=8)
        mid = running_request("mid", 2.0, generated=4)
        new = running_request("new", 3.0, generated=1)
        return old, mid, new

    def test_newest_admission_is_evicted(self, platform_7b):
        old, mid, new = self._residents()
        engine = full_engine(platform_7b, [old, mid, new])
        evicted: list[Request] = []
        assert engine._make_room(old, 4.0, evicted)
        assert evicted == [new]
        assert engine.batch.requests == [old, mid]

    def test_protected_request_is_skipped(self, platform_7b):
        old, mid, new = self._residents()
        engine = full_engine(platform_7b, [old, mid, new])
        evicted: list[Request] = []
        assert engine._make_room(new, 4.0, evicted)
        assert evicted == [mid]

    def test_same_instant_tie_evicts_the_earliest_in_batch_order(self, platform_7b):
        # Two admissions in one iteration share a timestamp; of that newest
        # group the one admitted first (earlier in batch order) goes first.
        old = running_request("old", 1.0, generated=8)
        first = running_request("first", 2.0, generated=4)
        second = running_request("second", 2.0, generated=4)
        engine = full_engine(platform_7b, [old, first, second])
        evicted: list[Request] = []
        assert engine._make_room(old, 3.0, evicted)
        assert evicted == [first]
        assert engine.batch.requests == [old, second]

    def test_protect_is_the_last_resort(self, platform_7b):
        only = running_request("only", 1.0, generated=3)
        engine = full_engine(platform_7b, [only])
        evicted: list[Request] = []
        assert not engine._make_room(only, 2.0, evicted)
        assert evicted == [only]
        assert engine.batch.is_empty
        assert engine.pool.used_tokens == 0

    def test_victim_is_requeued_at_the_head_and_recomputes_its_context(self, platform_7b):
        old, mid, new = self._residents()
        engine = full_engine(platform_7b, [old, mid, new])
        engine.waiting.append(Request(spec=make_spec(request_id="queued"), arrival_time=0.0))
        engine._make_room(old, 4.0, [])
        assert engine.waiting[0] is new
        assert new.state is RequestState.QUEUED
        assert new.eviction_count == 1
        # Re-admission recomputes the prompt plus every generated token.
        assert new.prefill_remaining == 10 + 1

    def test_a_readmitted_request_counts_from_its_latest_admission(self, platform_7b):
        # Recency is the last entry of ``admission_times``: a request first
        # admitted before everyone else but re-admitted after an eviction is
        # the newest resident.
        returned = running_request("returned", 0.5, generated=2)
        returned.evict()
        returned.admit(3.5)
        returned.note_prefill(returned.recompute_tokens)
        old = running_request("old", 1.0, generated=8)
        mid = running_request("mid", 2.0, generated=4)
        engine = full_engine(platform_7b, [returned, old, mid])
        evicted: list[Request] = []
        assert engine._make_room(old, 4.0, evicted)
        assert evicted == [returned]

    def test_repeated_pressure_evicts_newest_to_oldest_then_protect(self, platform_7b):
        old, mid, new = self._residents()
        engine = full_engine(platform_7b, [old, mid, new])
        evicted: list[Request] = []
        for _ in range(2):
            engine.pool.allocate(engine.pool.free_tokens)
            assert engine._make_room(old, 4.0, evicted)
        engine.pool.allocate(engine.pool.free_tokens)
        assert not engine._make_room(old, 4.0, evicted)
        assert evicted == [new, mid, old]
        assert list(engine.waiting) == [old, mid, new]

    def test_a_cached_prefix_goes_before_any_resident(self, platform_7b):
        old, mid, new = self._residents()
        residents = sum(r.current_context_tokens for r in (old, mid, new))
        engine = InferenceEngine(
            platform=platform_7b,
            scheduler=AggressiveScheduler(watermark=1.0),
            token_capacity_override=residents + 5,
            prefix_cache_tokens=5,
        )
        for request in (old, mid, new):
            engine.batch.add(request)
        engine.pool.allocate(residents + 5)
        engine.prefix_cache.retain("s0", 0, 5)
        evicted: list[Request] = []
        assert engine._make_room(old, 4.0, evicted)
        assert evicted == []
        assert engine.batch.requests == [old, mid, new]
        assert len(engine.prefix_cache) == 0
        assert engine.pool.free_tokens == 5
