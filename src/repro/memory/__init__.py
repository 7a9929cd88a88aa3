"""KV-cache memory substrate: token-counting pool, prefix cache, accounting."""

from repro.memory.block_manager import BlockKVCachePool, OutOfMemoryError
from repro.memory.pool_stats import MemoryTimeline
from repro.memory.prefix_cache import PrefixCache, PrefixCacheStats, PrefixEntry

__all__ = [
    "BlockKVCachePool",
    "OutOfMemoryError",
    "PrefixCache",
    "PrefixCacheStats",
    "PrefixEntry",
    "MemoryTimeline",
]
