"""KV-cache memory substrate: paged pool, prefix cache, accounting."""

from repro.memory.block_manager import (
    AllocationError,
    BlockKVCachePool,
    BlockTable,
    OutOfMemoryError,
)
from repro.memory.pool_stats import MemorySample, MemoryTimeline
from repro.memory.prefix_cache import PrefixCache, PrefixCacheStats, PrefixEntry

__all__ = [
    "AllocationError",
    "BlockKVCachePool",
    "BlockTable",
    "OutOfMemoryError",
    "PrefixCache",
    "PrefixCacheStats",
    "PrefixEntry",
    "MemorySample",
    "MemoryTimeline",
]
