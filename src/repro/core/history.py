"""Sliding-window history of finished request output lengths (the "Past").

Section 3.2 of the paper observes that the output-length distribution of the
most recent *w* finished requests (the "historical window", w = 1000 in the
paper) predicts the distribution of the requests currently being served.  The
:class:`OutputLengthHistory` keeps exactly that window, :data:`WINDOW_SIZE`
requests long, and exposes it as an empirical distribution.

Before any request has finished (service start-up), the paper initialises the
distribution with the preset maximum output length; :meth:`snapshot` mirrors
that by falling back to a configurable default length until real observations
arrive.
"""

from __future__ import annotations

from collections import deque

import numpy as np

#: The paper's historical request window: the last 1000 finished requests.
WINDOW_SIZE = 1000


class OutputLengthHistory:
    """Sliding window over the last :data:`WINDOW_SIZE` finished output lengths.

    Args:
        default_length: length used to seed the distribution before any
            request has finished (the paper uses the preset
            ``max_new_tokens``).
    """

    def __init__(self, default_length: int = 2048) -> None:
        if default_length <= 0:
            raise ValueError("default_length must be positive")
        self._default_length = default_length
        self._lengths: deque[int] = deque(maxlen=WINDOW_SIZE)
        self._version = 0
        self._sorted_cache: np.ndarray | None = None
        self._sorted_cache_version = -1

    @property
    def is_empty(self) -> bool:
        """Whether no request has finished yet."""
        return not self._lengths

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation.

        Lets consumers cache derived views (e.g. the sorted window used by
        the per-iteration predictor) and invalidate them only when the window
        actually changed.
        """
        return self._version

    def record(self, output_length: int) -> None:
        """Add one finished request's output length to the window."""
        if output_length <= 0:
            raise ValueError("output_length must be positive")
        self._lengths.append(int(output_length))
        self._version += 1

    def snapshot(self) -> np.ndarray:
        """Current window as an integer array (the seed value if empty)."""
        if self.is_empty:
            return np.array([self._default_length], dtype=np.int64)
        return np.fromiter(self._lengths, dtype=np.int64, count=len(self._lengths))

    def sorted_snapshot(self) -> np.ndarray:
        """Ascending-sorted window, cached until the next mutation.

        Per-iteration predictor construction and the batched saturated-phase
        admission path both want the window sorted (conditional sampling is a
        ``searchsorted`` over it); sorting per consultation would be
        O(w log w) each time.  The cache is invalidated by :attr:`version`,
        so the array is re-sorted only when an observation actually arrived.
        The returned array is shared between consumers until the window
        changes, so it is read-only: an in-place write raises ``ValueError``.
        """
        if self._sorted_cache is None or self._sorted_cache_version != self._version:
            self._sorted_cache = np.sort(self.snapshot())
            self._sorted_cache.flags.writeable = False
            self._sorted_cache_version = self._version
        return self._sorted_cache

    def clear(self) -> None:
        """Drop all observations (used between simulation runs)."""
        self._lengths.clear()
        self._version += 1

    # ----------------------------------------------------------- statistics
    def mean(self) -> float:
        """Mean of the current window (or the seed value if empty)."""
        return float(self.snapshot().mean())
