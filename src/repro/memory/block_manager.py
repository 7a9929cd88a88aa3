"""KV-cache pool, counted in tokens.

The pool has a fixed token capacity and one number: how many tokens are in
use.  It does not know who holds them.  The owners keep their own counts —
a resident request holds ``current_context_tokens``, a cached session
prefix (:mod:`repro.memory.prefix_cache`) holds its ``tokens`` — and the
engine keeps ``used_tokens`` equal to their sum.  The engine

* allocates a request's prompt KV at admission and one token per decode
  step (``allocate``), and
* frees a request's whole context when it finishes, is evicted or is
  aborted, and a cached prefix's tokens when it is dropped (``free``).

Token granularity is what every scheduler here reasons in: the Past-Future
scheduler's Eq. 2–4 peak estimate and the aggressive scheduler's watermark
(``token_capacity * watermark``) alike.  It is also how LightLLM, the
paper's serving framework, manages KV ("TokenAttention").
"""

from __future__ import annotations


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation does not fit in the pool."""


class BlockKVCachePool:
    """Fixed-capacity KV-cache pool that counts used tokens.

    Args:
        token_capacity: total number of token slots the pool can hold.
    """

    def __init__(self, token_capacity: int) -> None:
        if token_capacity <= 0:
            raise ValueError("token_capacity must be positive")
        self._capacity = token_capacity
        self._used_tokens = 0

    @property
    def token_capacity(self) -> int:
        """Total token slots."""
        return self._capacity

    @property
    def used_tokens(self) -> int:
        """Tokens currently in use."""
        return self._used_tokens

    @property
    def free_tokens(self) -> int:
        """Token slots still available."""
        return self._capacity - self._used_tokens

    def can_allocate(self, num_tokens: int) -> bool:
        """Whether ``allocate(num_tokens)`` would succeed."""
        return num_tokens <= self._capacity - self._used_tokens

    def allocate(self, num_tokens: int) -> None:
        """Take ``num_tokens`` free slots (zero is allowed).

        Raises:
            ValueError: if ``num_tokens`` is negative.
            OutOfMemoryError: if fewer than ``num_tokens`` slots are free;
                nothing is allocated.
        """
        if num_tokens < 0:
            raise ValueError(f"cannot allocate {num_tokens} tokens")
        if num_tokens > self._capacity - self._used_tokens:
            raise OutOfMemoryError(f"need {num_tokens} tokens, only {self.free_tokens} free")
        self._used_tokens += num_tokens

    def free(self, num_tokens: int) -> None:
        """Return ``num_tokens`` slots to the pool.

        Raises:
            ValueError: if ``num_tokens`` is negative or more than are in use.
        """
        if not 0 <= num_tokens <= self._used_tokens:
            raise ValueError(f"cannot free {num_tokens} tokens, {self._used_tokens} in use")
        self._used_tokens -= num_tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockKVCachePool(tokens={self._used_tokens}/{self._capacity})"
