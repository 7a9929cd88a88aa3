"""Tests for the token-counting KV-cache pool."""

from __future__ import annotations

import pytest

from repro.engine.engine import InferenceEngine
from repro.engine.request import Request
from repro.memory.block_manager import BlockKVCachePool, OutOfMemoryError
from repro.memory.prefix_cache import PrefixCache
from repro.schedulers.aggressive import AggressiveScheduler
from tests.conftest import make_spec
from tests.helpers import cache_entries


class TestConstruction:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BlockKVCachePool(0)


class TestAllocation:
    def test_allocate_and_free(self):
        pool = BlockKVCachePool(64)
        pool.allocate(20)
        assert pool.used_tokens == 20
        assert pool.free_tokens == 44
        pool.free(20)
        assert pool.used_tokens == 0
        assert pool.free_tokens == 64

    def test_used_tokens_tracks_allocations(self):
        pool = BlockKVCachePool(64)
        pool.allocate(10)
        pool.allocate(5)
        assert pool.used_tokens == 15

    def test_negative_allocation_rejected_and_zero_allowed(self):
        pool = BlockKVCachePool(64)
        with pytest.raises(ValueError):
            pool.allocate(-1)
        pool.allocate(0)
        assert pool.used_tokens == 0

    def test_allocation_exceeding_capacity_raises(self):
        pool = BlockKVCachePool(64)
        with pytest.raises(OutOfMemoryError):
            pool.allocate(65)
        pool.allocate(60)
        with pytest.raises(OutOfMemoryError):
            pool.allocate(5)
        # Nothing is allocated by a request that does not fit.
        assert pool.used_tokens == 60

    def test_can_allocate(self):
        pool = BlockKVCachePool(64)
        assert pool.can_allocate(64)
        assert not pool.can_allocate(65)
        pool.allocate(33)
        assert pool.can_allocate(31)
        assert not pool.can_allocate(32)

    def test_over_free_and_negative_free_raise(self):
        pool = BlockKVCachePool(64)
        pool.allocate(10)
        with pytest.raises(ValueError):
            pool.free(11)
        with pytest.raises(ValueError):
            pool.free(-1)
        assert pool.used_tokens == 10

    def test_free_unknown_request_is_noop(self):
        """An owner that holds nothing frees zero tokens, which changes nothing."""
        pool = BlockKVCachePool(64)
        pool.free(0)
        assert pool.used_tokens == 0
        pool.allocate(5)
        pool.free(0)
        assert pool.used_tokens == 5

    def test_holds_and_tokens_of(self, platform_7b):
        """The owners, not the pool, say who holds tokens and how many.

        An admitted request holds its ``current_context_tokens``; a queued
        one holds nothing.  The pool's count is the admitted ones' sum.
        """
        engine = InferenceEngine(
            platform=platform_7b,
            scheduler=AggressiveScheduler(watermark=1.0),
            token_capacity_override=20,
        )
        admitted, queued = (
            Request(
                spec=make_spec(request_id=f"r{i}", input_length=12, output_length=4),
                arrival_time=0.0,
            )
            for i in range(2)
        )
        engine.submit(admitted)
        engine.submit(queued)
        engine.step(0.0)
        assert list(engine.batch) == [admitted]
        assert list(engine.waiting) == [queued]
        assert admitted.current_context_tokens == 13
        assert engine.pool.used_tokens == admitted.current_context_tokens


class TestAppendToken:
    """Decode growth is one ``allocate(1)`` per generated token."""

    def test_append_raises_when_pool_exhausted(self):
        pool = BlockKVCachePool(8)
        pool.allocate(8)
        with pytest.raises(OutOfMemoryError):
            pool.allocate(1)
        assert pool.used_tokens == 8

    def test_can_append_token(self):
        pool = BlockKVCachePool(8)
        pool.allocate(7)
        assert pool.can_allocate(1)
        pool.allocate(1)
        assert not pool.can_allocate(1)  # pool full


class TestAccounting:
    def test_block_reuse_after_free(self):
        pool = BlockKVCachePool(32)
        pool.allocate(32)
        pool.free(32)
        pool.allocate(32)
        assert pool.used_tokens == 32
        assert pool.free_tokens == 0


class TestTokenGranularity:
    def test_block_size_one_has_no_rounding_waste(self):
        pool = BlockKVCachePool(100)
        pool.allocate(33)
        pool.allocate(67)
        assert pool.free_tokens == 0
        assert pool.used_tokens == 100


class TestPinning:
    """A cached prefix's tokens are pinned: they count as used but never grow.

    The pool cannot tell a request's tokens from a cached prefix's; the
    :class:`~repro.memory.prefix_cache.PrefixCache` takes them over and
    hands them back without a pool call.
    """

    def test_pinned_tokens_shrink_uniform_growth(self):
        pool = BlockKVCachePool(100)
        cache = PrefixCache(pool)
        pool.allocate(10)  # request "a"
        pool.allocate(30)  # request "b", which finishes and is parked
        cache.retain("b", 0, 30)
        growing = [10]  # only "a" decodes
        assert pool.free_tokens // len(growing) == 60
        # A follow-up stage claims the prefix: its tokens grow again.
        cache.claim(cache_entries(cache)[0])
        growing.append(30)
        assert pool.used_tokens == sum(growing)
        assert pool.free_tokens // len(growing) == 30

    def test_rename_carries_tokens_and_pin(self):
        """Parking a finished turn under its session carries its tokens over."""
        pool = BlockKVCachePool(64)
        cache = PrefixCache(pool, capacity_tokens=8)
        pool.allocate(7)  # request "a"
        pool.allocate(1)  # request "c"
        assert cache.retain("k", 0, 7).retained
        assert cache.resident_tokens == 7
        assert pool.used_tokens == 8
        # A context larger than the budget stays with its request.
        pool.allocate(9)
        assert not cache.retain("z", 0, 9).retained
        pool.free(9)
        assert cache.resident_tokens == 7
        cache.evict_lru()
        assert cache.resident_tokens == 0
        assert pool.used_tokens == 1

    def test_bulk_growth_is_all_or_nothing(self):
        pool = BlockKVCachePool(10)
        held = [4, 2, 2]
        for tokens in held:
            pool.allocate(tokens)
        with pytest.raises(OutOfMemoryError):
            pool.allocate(3 * len(held))
        assert pool.used_tokens == 8
        pool.allocate(1)
        assert pool.used_tokens == 9
        assert pool.free_tokens // len(held) == 0
