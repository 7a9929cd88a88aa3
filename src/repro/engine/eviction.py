"""Eviction (preemption) policies for the continuous-batching engine.

When the KV-cache pool cannot grow every running request by one token, the
engine must evict requests until the remaining batch fits.  Evicted requests
lose their KV cache and are re-queued; their prompt and already generated
tokens are recomputed when they are admitted again (the recomputation variant
used by vLLM and LightLLM), or their KV is copied to host memory and back (the
swap variant).  The scheduling papers agree that either way the client
observes a long token gap, so the SLA effect is captured by the re-queue; the
swap variant only changes the recompute cost.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.engine.batch import RunningBatch
from repro.engine.request import Request


class EvictionPolicy(abc.ABC):
    """Chooses which resident request to sacrifice when memory runs out."""

    name: str = "abstract"

    @abc.abstractmethod
    def select_victim(self, batch: RunningBatch, protect: Request | None = None) -> Request | None:
        """Return the request to evict, or ``None`` if no victim is available.

        Args:
            batch: the current running batch.
            protect: a request that must not be selected (typically the one
                whose token allocation triggered the shortage) unless it is
                the only resident request.
        """

    def recompute_cost_tokens(self, request: Request) -> int:
        """Prompt-equivalent tokens that must be recomputed on re-admission."""
        return request.recompute_tokens


@dataclass
class RecomputeNewestFirst(EvictionPolicy):
    """Evict the most recently admitted request first (vLLM-style preemption).

    The newest request has the least KV investment, so evicting it wastes the
    least work; it is also the request whose SLA is least damaged by being
    restarted, because it has delivered the fewest tokens.
    """

    name: str = "recompute-newest-first"

    def select_victim(self, batch: RunningBatch, protect: Request | None = None) -> Request | None:
        """The newest resident other than ``protect`` (``protect`` if it is alone)."""
        candidates = batch.by_recency()
        for request in candidates:
            if request is not protect:
                return request
        # Only the protected request remains: it must be the victim of last
        # resort (its own growth cannot be satisfied).
        return candidates[0] if candidates else None


@dataclass
class RecomputeOldestFirst(EvictionPolicy):
    """Evict the oldest resident request first.

    Included as an ablation: it maximises wasted work and is strictly worse
    for MTPOT, which tests assert.
    """

    name: str = "recompute-oldest-first"

    def select_victim(self, batch: RunningBatch, protect: Request | None = None) -> Request | None:
        """The oldest resident other than ``protect`` (``protect`` if it is alone)."""
        candidates = list(reversed(batch.by_recency()))
        for request in candidates:
            if request is not protect:
                return request
        return candidates[0] if candidates else None


@dataclass
class SwapEviction(RecomputeNewestFirst):
    """Swap-to-host eviction: same victim choice, cheaper re-admission.

    The re-admission cost models a PCIe copy instead of a full recompute: the
    engine charges only ``swap_fraction`` of the recompute tokens.
    """

    name: str = "swap-newest-first"
    swap_fraction: float = 0.25

    def recompute_cost_tokens(self, request: Request) -> int:
        """``swap_fraction`` of the recompute tokens, at least one."""
        return max(1, int(request.recompute_tokens * self.swap_fraction))
