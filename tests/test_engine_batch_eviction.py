"""Tests for the engine's eviction rule."""

from __future__ import annotations

from repro.engine.engine import InferenceEngine
from repro.engine.request import Request, RequestState
from repro.schedulers.aggressive import AggressiveScheduler
from tests.conftest import make_spec
from tests.helpers import grown_request, seat


def running_request(request_id: str, admit_time: float, generated: int = 0) -> Request:
    spec = make_spec(request_id=request_id, input_length=10, output_length=20, max_new_tokens=40)
    return grown_request(spec, generated, admit_time=admit_time)


def full_engine(platform_7b, residents: list[Request], free: int = 0) -> InferenceEngine:
    """An engine holding ``residents`` in batch order with ``free`` slots to spare."""
    engine = InferenceEngine(
        platform=platform_7b,
        scheduler=AggressiveScheduler(watermark=1.0),
        token_capacity_override=sum(r.current_context_tokens for r in residents) + free,
    )
    seat(engine, residents)
    assert engine.pool.free_tokens == free
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
        assert engine.batch == [old, mid]

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
        assert engine.batch == [old, second]

    def test_protect_is_the_last_resort(self, platform_7b):
        only = running_request("only", 1.0, generated=3)
        engine = full_engine(platform_7b, [only])
        evicted: list[Request] = []
        assert not engine._make_room(only, 2.0, evicted)
        assert evicted == [only]
        assert not engine.batch
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
        seat(engine, [old, mid, new])
        engine.pool.allocate(5)
        engine.prefix_cache.retain("s0", 0, 5)
        evicted: list[Request] = []
        assert engine._make_room(old, 4.0, evicted)
        assert evicted == []
        assert engine.batch == [old, mid, new]
        assert len(engine.prefix_cache) == 0
        assert engine.pool.free_tokens == 5


class TestDeliveryAtThePoolBoundary:
    """``step`` allocates the first ``min(free, n)`` tokens at once, the rest per token.

    Every resident decodes, so the step's delivery targets are the batch in
    order; the outcomes are the ones the per-token path produces.
    """

    def _context(self, engine: InferenceEngine) -> int:
        return sum(r.current_context_tokens for r in engine.batch)

    def test_a_slot_per_target_evicts_nothing(self, platform_7b):
        residents = [running_request(name, float(t), generated=2) for t, name in enumerate("abc", 1)]
        engine = full_engine(platform_7b, residents, free=3)
        result = engine.step(4.0)
        assert result.evicted == [] and result.finished == []
        assert [r.generated_tokens for r in residents] == [3, 3, 3]
        assert engine.pool.free_tokens == 0
        assert engine.pool.used_tokens == self._context(engine)

    def test_a_finish_among_the_roomy_tokens_makes_room_for_the_last(self, platform_7b):
        # ``a`` delivers its last token first and frees its context, so ``c``
        # finds room without evicting anyone.
        a = running_request("a", 1.0, generated=19)
        b = running_request("b", 2.0, generated=2)
        c = running_request("c", 3.0, generated=2)
        engine = full_engine(platform_7b, [a, b, c], free=2)
        result = engine.step(4.0)
        assert result.evicted == []
        assert result.finished == [a]
        assert a.is_finished
        assert (b.generated_tokens, c.generated_tokens) == (3, 3)
        assert engine.batch == [b, c]
        assert engine.pool.used_tokens == self._context(engine)
        assert engine.stats.total_decode_tokens == 3

    def test_one_slot_short_evicts_the_newest_admission(self, platform_7b):
        # ``mid`` delivers last and finds the pool full: the newest other
        # resident, ``new``, is evicted after it already got its token.
        old = running_request("old", 1.0, generated=2)
        new = running_request("new", 3.0, generated=2)
        mid = running_request("mid", 2.0, generated=2)
        engine = full_engine(platform_7b, [old, new, mid], free=2)
        result = engine.step(4.0)
        assert result.evicted == [new]
        assert result.finished == []
        assert new.state is RequestState.QUEUED
        assert list(engine.waiting) == [new]
        assert engine.batch == [old, mid]
        assert (old.generated_tokens, new.generated_tokens, mid.generated_tokens) == (3, 3, 3)
        assert engine.pool.used_tokens == self._context(engine)
        assert engine.stats.total_decode_tokens == 3

    def test_a_grower_evicted_before_it_is_served_gets_no_token(self, platform_7b):
        # ``mid`` and ``new`` are growers past the one free slot.  ``mid``
        # evicts ``new``, the newest admission and a later target: ``new``
        # leaves before this iteration serves it, so it keeps its two tokens.
        old = running_request("old", 1.0, generated=2)
        mid = running_request("mid", 2.0, generated=2)
        new = running_request("new", 3.0, generated=2)
        engine = full_engine(platform_7b, [old, mid, new], free=1)
        result = engine.step(4.0)
        assert result.evicted == [new]
        assert (old.generated_tokens, mid.generated_tokens) == (3, 3)
        assert new.generated_tokens == 2
        assert new.token_times == [4.0, 5.0]
        assert new.recompute_tokens == 10 + 2
        assert engine.pool.used_tokens == self._context(engine)
        assert engine.stats.total_decode_tokens == 2

    def test_a_lone_grower_that_finds_no_room_gets_no_token(self, platform_7b):
        only = running_request("only", 1.0, generated=3)
        engine = full_engine(platform_7b, [only])
        result = engine.step(2.0)
        assert result.evicted == [only]
        assert only.generated_tokens == 3 and len(only.token_times) == 3
        assert engine.pool.used_tokens == 0

    def test_an_eviction_between_iterations_voids_the_jump_profile(self, platform_7b):
        # A forced eviction outside ``step`` (crash handling, tests) must not
        # leave the last step's batch profile for the next jump to trust.
        only = running_request("only", 1.0, generated=2)
        engine = full_engine(platform_7b, [only], free=100)
        time = engine.step(2.0).end_time
        engine._evict(only, time)
        # Empty the queue, so only a stale batch profile could license a jump.
        engine.waiting.remove(only)
        engine.scheduler.on_request_dequeued(only)
        assert engine.try_jump_any(time) is None
        assert engine.pool.used_tokens == 0
