"""KV-cache pool, counted in tokens.

The pool has a fixed token capacity and records how many tokens each owner
(a running request, or a cached session prefix) holds.  The engine asks it
to

* allocate the prompt KV of a request at prefill time (``allocate``),
* grow a request by one token per decode step (``append_token``), and
* release everything a request holds when it finishes or is evicted
  (``free``).

Token granularity is what every scheduler here reasons in: the Past-Future
scheduler's Eq. 2–4 peak estimate and the aggressive scheduler's watermark
(``token_capacity * watermark``) alike.  It is also how LightLLM, the
paper's serving framework, manages KV ("TokenAttention").
"""

from __future__ import annotations


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation does not fit in the pool."""


class AllocationError(ValueError):
    """Raised on invalid allocation requests (double alloc, unknown request...)."""


class BlockKVCachePool:
    """Fixed-capacity KV-cache pool that counts tokens per owner.

    Args:
        token_capacity: total number of token slots the pool can hold.
    """

    def __init__(self, token_capacity: int) -> None:
        if token_capacity <= 0:
            raise ValueError("token_capacity must be positive")
        self._capacity = token_capacity
        self._tokens: dict[str, int] = {}
        # Pinned owners hold tokens but never grow: cached session prefixes
        # (repro.memory.prefix_cache) park here between turns.
        # max_uniform_growth skips them, so a pinned owner exerts pool
        # pressure without participating in uniform growth.
        self._pinned: set[str] = set()
        # Kept in sync by every allocate / append / free so `used_tokens`
        # (queried once per decode token by the engine) is O(1).
        self._used_tokens = 0

    # ------------------------------------------------------------------ sizes
    @property
    def token_capacity(self) -> int:
        """Total token slots."""
        return self._capacity

    @property
    def used_tokens(self) -> int:
        """Total tokens currently stored across all owners (O(1))."""
        return self._used_tokens

    @property
    def free_tokens(self) -> int:
        """Token slots still available."""
        return self._capacity - self._used_tokens

    @property
    def utilization(self) -> float:
        """Fraction of token capacity currently in use (O(1))."""
        return self._used_tokens / self._capacity

    # ------------------------------------------------------------- allocation
    def holds(self, request_id: str) -> bool:
        """Whether the request currently owns any tokens."""
        return request_id in self._tokens

    def tokens_of(self, request_id: str) -> int:
        """Tokens stored for a request (0 if it holds nothing)."""
        return self._tokens.get(request_id, 0)

    def can_allocate(self, num_tokens: int) -> bool:
        """Whether a fresh allocation of ``num_tokens`` would succeed."""
        return num_tokens <= self._capacity - self._used_tokens

    def allocate(self, request_id: str, num_tokens: int) -> None:
        """Allocate the initial (prompt) KV of a request.

        Raises:
            AllocationError: if the request already holds tokens or
                ``num_tokens`` is not positive.
            OutOfMemoryError: if the pool does not have enough free tokens.
        """
        if num_tokens <= 0:
            raise AllocationError("num_tokens must be positive")
        if request_id in self._tokens:
            raise AllocationError(f"request {request_id!r} already allocated")
        if not self.can_allocate(num_tokens):
            raise OutOfMemoryError(f"need {num_tokens} tokens, only {self.free_tokens} free")
        self._tokens[request_id] = num_tokens
        self._used_tokens += num_tokens

    def append_token(self, request_id: str) -> None:
        """Grow a request by one generated token.

        Raises:
            AllocationError: if the request holds nothing.
            OutOfMemoryError: if the pool is full.
        """
        if request_id not in self._tokens:
            raise AllocationError(f"request {request_id!r} has no allocation")
        if self._used_tokens >= self._capacity:
            raise OutOfMemoryError(f"no free token to extend request {request_id!r}")
        self._tokens[request_id] += 1
        self._used_tokens += 1

    def append_tokens(self, request_id: str, num_tokens: int) -> None:
        """Grow a request by ``num_tokens`` generated tokens in one call.

        The bulk path used by the engine's event-jump fast forward; equivalent
        to ``num_tokens`` successive :meth:`append_token` calls.

        Raises:
            AllocationError: if the request holds nothing or ``num_tokens``
                is not positive.
            OutOfMemoryError: if fewer than ``num_tokens`` tokens are free (no
                partial growth is performed).
        """
        if num_tokens <= 0:
            raise AllocationError("num_tokens must be positive")
        if request_id not in self._tokens:
            raise AllocationError(f"request {request_id!r} has no allocation")
        if num_tokens > self._capacity - self._used_tokens:
            raise OutOfMemoryError(
                f"need {num_tokens} tokens to grow request {request_id!r}, "
                f"only {self.free_tokens} free"
            )
        self._tokens[request_id] += num_tokens
        self._used_tokens += num_tokens

    def can_extend(self, request_id: str, num_tokens: int) -> bool:
        """Whether :meth:`append_tokens` of ``num_tokens`` would succeed."""
        return request_id in self._tokens and 0 < num_tokens <= self._capacity - self._used_tokens

    def max_uniform_growth(self, cap: int | None = None) -> int:
        """Largest ``K`` such that *every* resident request can grow by ``K``
        tokens without exhausting the pool, regardless of interleaving.

        Used by the event-jump planner to prove that ``K`` macro-advanced
        decode iterations cannot trigger an eviction.  Returns ``cap`` when
        no request is resident (unbounded growth), and ``0`` when even one
        more token per request may not fit.  Pinned owners do not grow; they
        only shrink the free space the growing requests draw from.
        """
        growing = len(self._tokens) - len(self._pinned)
        if growing == 0:
            return cap if cap is not None else self._capacity
        best = self.free_tokens // growing
        return best if cap is None else min(best, cap)

    # ---------------------------------------------------------------- pinning
    def pin(self, request_id: str) -> None:
        """Exclude an owner from uniform decode growth (cached-prefix parking).

        Raises:
            AllocationError: if the request holds nothing.
        """
        if request_id not in self._tokens:
            raise AllocationError(f"request {request_id!r} has no allocation")
        self._pinned.add(request_id)

    def unpin(self, request_id: str) -> None:
        """Re-include an owner in uniform decode growth (no-op if not pinned)."""
        self._pinned.discard(request_id)

    @property
    def pinned_tokens(self) -> int:
        """Tokens held by pinned owners (cached prefixes)."""
        return sum(self._tokens[rid] for rid in self._pinned)

    def rename(self, old_id: str, new_id: str) -> None:
        """Transfer an allocation to a new owner id, keeping its tokens.

        The handoff primitive behind prefix reuse: a finished turn's tokens
        move under a cache key, and back under the follow-up request's id on
        a hit.  Pinned status travels with the allocation.

        Raises:
            AllocationError: if ``old_id`` holds nothing or ``new_id``
                already holds an allocation.
        """
        if old_id not in self._tokens:
            raise AllocationError(f"request {old_id!r} has no allocation")
        if new_id in self._tokens:
            raise AllocationError(f"request {new_id!r} already allocated")
        self._tokens[new_id] = self._tokens.pop(old_id)
        if old_id in self._pinned:
            self._pinned.discard(old_id)
            self._pinned.add(new_id)

    def free(self, request_id: str) -> int:
        """Release everything a request holds, returning the tokens released.

        Freeing a request that holds nothing is a no-op returning 0, so the
        engine can call it unconditionally on finish/evict paths.
        """
        released = self._tokens.pop(request_id, 0)
        self._pinned.discard(request_id)
        self._used_tokens -= released
        return released

    # ------------------------------------------------------------- inspection
    def owners(self) -> list[str]:
        """Request ids that currently hold tokens."""
        return list(self._tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockKVCachePool(tokens={self._used_tokens}/{self._capacity})"
