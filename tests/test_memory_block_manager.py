"""Tests for the token-counting KV-cache pool."""

from __future__ import annotations

import pytest

from repro.memory.block_manager import (
    AllocationError,
    BlockKVCachePool,
    OutOfMemoryError,
)


class TestConstruction:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BlockKVCachePool(0)



class TestAllocation:
    def test_allocate_and_free(self):
        pool = BlockKVCachePool(64)
        pool.allocate("a", 20)
        assert pool.tokens_of("a") == 20
        assert pool.free_tokens == 44
        assert pool.free("a") == 20
        assert pool.used_tokens == 0
        assert not pool.holds("a")

    def test_used_tokens_tracks_allocations(self):
        pool = BlockKVCachePool(64)
        pool.allocate("a", 10)
        pool.allocate("b", 5)
        assert pool.used_tokens == 15

    def test_double_allocation_rejected(self):
        pool = BlockKVCachePool(64)
        pool.allocate("a", 4)
        with pytest.raises(AllocationError):
            pool.allocate("a", 4)

    def test_non_positive_allocation_rejected(self):
        pool = BlockKVCachePool(64)
        with pytest.raises(AllocationError):
            pool.allocate("a", 0)

    def test_allocation_exceeding_capacity_raises(self):
        pool = BlockKVCachePool(64)
        with pytest.raises(OutOfMemoryError):
            pool.allocate("a", 65)

    def test_can_allocate(self):
        pool = BlockKVCachePool(64)
        assert pool.can_allocate(64)
        assert not pool.can_allocate(65)
        pool.allocate("a", 33)
        assert pool.can_allocate(31)
        assert not pool.can_allocate(32)

    def test_free_unknown_request_is_noop(self):
        pool = BlockKVCachePool(64)
        assert pool.free("ghost") == 0

    def test_holds_and_tokens_of(self):
        pool = BlockKVCachePool(64)
        pool.allocate("a", 7)
        assert pool.holds("a")
        assert not pool.holds("b")
        assert pool.tokens_of("a") == 7
        assert pool.tokens_of("b") == 0


class TestAppendToken:
    def test_append_without_allocation_rejected(self):
        pool = BlockKVCachePool(64)
        with pytest.raises(AllocationError):
            pool.append_token("ghost")

    def test_append_raises_when_pool_exhausted(self):
        pool = BlockKVCachePool(8)
        pool.allocate("a", 8)
        with pytest.raises(OutOfMemoryError):
            pool.append_token("a")
        with pytest.raises(OutOfMemoryError):
            pool.append_tokens("a", 1)
        assert pool.tokens_of("a") == 8

    def test_can_append_token(self):
        pool = BlockKVCachePool(8)
        pool.allocate("a", 7)
        assert pool.can_extend("a", 1)
        pool.append_token("a")
        assert not pool.can_extend("a", 1)  # pool full
        assert not pool.can_extend("ghost", 1)


class TestAccounting:
    def test_utilization(self):
        pool = BlockKVCachePool(100)
        pool.allocate("a", 25)
        assert pool.utilization == pytest.approx(0.25)

    def test_owners(self):
        pool = BlockKVCachePool(64)
        pool.allocate("a", 5)
        pool.allocate("b", 3)
        pool.free("a")
        assert pool.owners() == ["b"]

    def test_block_reuse_after_free(self):
        pool = BlockKVCachePool(32)
        pool.allocate("a", 32)
        pool.free("a")
        pool.allocate("b", 32)
        assert pool.used_tokens == 32
        assert pool.free_tokens == 0


class TestTokenGranularity:
    def test_block_size_one_has_no_rounding_waste(self):
        pool = BlockKVCachePool(100)
        pool.allocate("a", 33)
        pool.allocate("b", 67)
        assert pool.free_tokens == 0
        assert pool.used_tokens == 100


class TestPinning:
    def test_pinned_tokens_shrink_uniform_growth(self):
        pool = BlockKVCachePool(100)
        pool.allocate("a", 10)
        pool.allocate("b", 30)
        pool.pin("b")
        assert pool.max_uniform_growth() == 60
        assert pool.max_uniform_growth(cap=5) == 5
        pool.unpin("b")
        assert pool.max_uniform_growth() == 30

    def test_rename_carries_tokens_and_pin(self):
        pool = BlockKVCachePool(64)
        pool.allocate("a", 7)
        pool.allocate("c", 1)
        pool.pin("a")
        pool.rename("a", "k")
        assert not pool.holds("a")
        assert pool.tokens_of("k") == 7
        assert pool.pinned_tokens == 7
        with pytest.raises(AllocationError):
            pool.rename("k", "c")
        with pytest.raises(AllocationError):
            pool.rename("a", "z")
        pool.free("k")
        assert pool.pinned_tokens == 0
        assert pool.used_tokens == 1

    def test_bulk_growth_is_all_or_nothing(self):
        pool = BlockKVCachePool(10)
        pool.allocate("a", 4)
        pool.allocate("b", 2)
        pool.allocate("c", 2)
        with pytest.raises(OutOfMemoryError):
            pool.append_tokens("a", 3)
        pool.append_tokens("a", 1)
        assert [pool.tokens_of(r) for r in "abc"] == [5, 2, 2]
        assert pool.max_uniform_growth() == 0
