"""Per-replica session prefix cache over the KV pool.

When a multi-turn session's stage *n* finishes, its KV cache — the
accumulated conversation context — is the hottest possible prefix for stage
*n + 1*, whose prompt extends it verbatim.  Instead of freeing those tokens,
the engine parks them here: the entry takes over the finished request's
tokens, which stay in the
:class:`~repro.memory.block_manager.BlockKVCachePool`'s ``used_tokens`` (the
simulated cost of caching) but never grow, since only the running batch
decodes.  A follow-up stage that lands on the same replica *claims* the
entry — the tokens pass to the new request and only the new suffix is
allocated and prefilled; a stage that lands elsewhere misses and pays the
full prefill.  Neither handoff touches the pool: the pool's count is always
the batch's context plus :attr:`PrefixCache.resident_tokens`.

Eviction is LRU and is charged to pool pressure twice over: entries are
dropped when the cache's own token budget overflows, and on demand when the
pool cannot satisfy an allocation for live traffic — live requests always
outrank cached prefixes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.memory.block_manager import BlockKVCachePool
from repro.workloads.spec import RequestSpec


@dataclass
class PrefixCacheStats:
    """Counters describing a prefix cache's lifetime behaviour."""

    #: admitted session requests that claimed a resident prefix.
    hits: int = 0
    #: admitted session requests that found no usable prefix.
    misses: int = 0
    #: cached prefixes released under pressure (budget, pool, or replacement).
    evictions: int = 0
    #: finished turns whose context was parked for reuse.
    retained: int = 0
    #: prompt tokens that skipped recompute (and re-allocation) via hits.
    reused_tokens: int = 0

    @property
    def lookups(self) -> int:
        """Session admissions that consulted the cache."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that claimed a resident prefix."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def merge(self, other: "PrefixCacheStats") -> None:
        """Accumulate another cache's counters into this one (fleet totals)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.retained += other.retained
        self.reused_tokens += other.reused_tokens

    def summary(self) -> dict:
        """Compact JSON-ready view (sorted keys for fingerprint stability)."""
        return {
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
            "hits": self.hits,
            "misses": self.misses,
            "retained": self.retained,
            "reused_tokens": self.reused_tokens,
        }


@dataclass(frozen=True)
class PrefixEntry:
    """One resident session prefix: the context of a completed stage."""

    session_id: str
    #: 0-based index of the completed stage whose context is resident.
    stage: int
    #: tokens resident (the stage's full prompt + generated output).
    tokens: int


@dataclass
class _RetainOutcome:
    """Result of parking a finished turn's context."""

    retained: bool
    evicted: list[PrefixEntry] = field(default_factory=list)


class PrefixCache:
    """LRU cache of session prefixes, charged to a shared KV pool.

    Args:
        pool: the replica's KV pool; resident entries' tokens count in its
            ``used_tokens``, and the cache frees them when it drops an entry.
        capacity_tokens: optional budget on resident cached tokens; ``None``
            bounds the cache only by pool pressure, as does any budget at or
            above the pool's capacity.  A prefix larger than the budget is
            never retained.
    """

    def __init__(self, pool: BlockKVCachePool, capacity_tokens: int | None = None) -> None:
        if capacity_tokens is not None and capacity_tokens <= 0:
            raise ValueError("capacity_tokens must be positive when set")
        self._pool = pool
        self._capacity = capacity_tokens
        self._entries: OrderedDict[str, PrefixEntry] = OrderedDict()
        self._resident_tokens = 0
        self.stats = PrefixCacheStats()

    # ------------------------------------------------------------------ state
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_tokens(self) -> int:
        """Tokens currently parked across all entries."""
        return self._resident_tokens

    # ----------------------------------------------------------------- lookup
    def lookup(self, spec: RequestSpec) -> PrefixEntry | None:
        """The resident prefix ``spec`` extends, or ``None``.

        A usable entry holds the context of exactly the previous stage of
        the same session, and the request's prompt must cover it (strictly
        extending conversations always do).  Pure peek: counters move only
        when the engine actually claims or allocates.
        """
        if spec.session_id is None or spec.session_stage is None:
            return None
        entry = self._entries.get(spec.session_id)
        if entry is None:
            return None
        if spec.session_stage != entry.stage + 1 or spec.prompt_tokens < entry.tokens:
            return None
        return entry

    # ------------------------------------------------------------------ claim
    def claim(self, entry: PrefixEntry) -> None:
        """Hand a resident prefix's tokens to an admitted request.

        The entry leaves the cache and its tokens become part of the
        request's context; they stay allocated in the pool.  Counts one hit
        and the reused tokens.
        """
        del self._entries[entry.session_id]
        self._resident_tokens -= entry.tokens
        self.stats.hits += 1
        self.stats.reused_tokens += entry.tokens

    def note_miss(self) -> None:
        """Count a session admission that found no usable prefix."""
        self.stats.misses += 1

    # ----------------------------------------------------------------- retain
    def retain(self, session_id: str, stage: int, tokens: int) -> _RetainOutcome:
        """Park a finished turn's ``tokens`` for its session's next stage.

        The entry takes over the tokens, which stay allocated in the pool.
        A previous entry for the same session is evicted first; entries are
        then LRU-evicted until the cache budget holds.  Returns whether the
        context was retained plus every entry evicted along the way — the
        engine emits ``prefix.evict`` events for those.  When ``tokens``
        exceeds the budget outright nothing is retained (the caller frees
        the tokens normally).
        """
        evicted: list[PrefixEntry] = []
        stale = self._entries.get(session_id)
        if stale is not None:
            evicted.append(self._evict(stale))
        if self._capacity is not None and tokens > self._capacity:
            return _RetainOutcome(retained=False, evicted=evicted)
        self._entries[session_id] = PrefixEntry(session_id=session_id, stage=stage, tokens=tokens)
        self._resident_tokens += tokens
        self.stats.retained += 1
        if self._capacity is not None:
            while self._resident_tokens > self._capacity and len(self._entries) > 1:
                evicted.append(self.evict_lru())
        return _RetainOutcome(retained=True, evicted=evicted)

    # --------------------------------------------------------------- eviction
    def _evict(self, entry: PrefixEntry) -> PrefixEntry:
        del self._entries[entry.session_id]
        self._resident_tokens -= entry.tokens
        self._pool.free(entry.tokens)
        self.stats.evictions += 1
        return entry

    def evict_lru(self) -> PrefixEntry:
        """Release the least recently used entry (cache must be non-empty)."""
        session_id = next(iter(self._entries))
        return self._evict(self._entries[session_id])

    def evict_for_allocation(self, num_tokens: int, protect: str | None = None) -> list[PrefixEntry]:
        """LRU-evict until the pool can allocate ``num_tokens``.

        Live traffic outranks cached prefixes: the engine calls this before
        giving up on an admission or a decode token.  ``protect`` names a
        session whose entry must survive — the prefix an admission is about
        to claim.  May run out of entries without making room; the caller
        re-checks ``can_allocate``.
        """
        evicted: list[PrefixEntry] = []
        while not self._pool.can_allocate(num_tokens):
            victim = next(
                (e for e in self._entries.values() if e.session_id != protect), None
            )
            if victim is None:
                break
            evicted.append(self._evict(victim))
        return evicted

    def clear(self) -> None:
        """Release every entry without counting evictions (crash teardown)."""
        self._pool.free(self._resident_tokens)
        self._entries.clear()
        self._resident_tokens = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrefixCache(entries={len(self._entries)}, "
            f"tokens={self._resident_tokens}, hits={self.stats.hits})"
        )
