"""Future-required-memory estimation (Section 3.3, Equations 2–4).

Given the running batch at time *t*, each request *i* is described by

* ``current_tokens[i]`` — the KV tokens it holds right now
  (prompt + generated so far), and
* ``remaining[i]`` — how many more tokens it is predicted to generate.

Memory demand can only peak at the moments requests finish.  Sorting requests
by *descending* remaining length (Eq. 2), the occupancy when request *i*
(i.e. the *i*-th to finish counting from the longest-running end) completes is

    M_i = sum_{j <= i} current_tokens[j] + remaining[i] * i        (Eq. 3)

and the future required memory of the batch is ``max_i M_i`` (Eq. 4).  This is
the minimum pool size that lets every admitted request run to completion with
no eviction, assuming the remaining-length estimates hold.

Every one-batch evaluation — the engine's oracle column, the router, the
autoscaler forecast and the admission tests of :class:`FutureMemoryIndex` —
calls :func:`peak_future_memory`.  numpy serves only many rows at once: the
Past-Future saturated-phase horizon proof (:func:`batched_peak_with_candidate`) and
:func:`memory_timeline`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

import numpy as np


def _token_arrays(current, remaining, ndims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Validated int64 ``(current, remaining)`` arrays of one allowed rank."""
    current_arr = np.asarray(current, dtype=np.int64)
    remaining_arr = np.asarray(remaining, dtype=np.int64)
    if current_arr.shape != remaining_arr.shape:
        raise ValueError("current and remaining must have the same shape")
    if current_arr.ndim not in ndims:
        raise ValueError(f"current and remaining must have {' or '.join(map(str, ndims))} dimensions")
    if (current_arr < 0).any() or (remaining_arr < 0).any():
        raise ValueError("token counts must be non-negative")
    return current_arr, remaining_arr


def peak_future_memory(current: Sequence[int], remaining: Sequence[int]) -> int:
    """Peak future memory (tokens) required to finish one batch (Eq. 2–4).

    A stable sort by descending remaining length (Eq. 2), a running prefix
    sum of current tokens giving each Eq. 3 value, and their maximum (Eq. 4),
    in plain Python: the engine, the router and the admission tests evaluate
    one small batch per event, where numpy's fixed per-call cost would
    dominate.  Many what-if
    rows at once go to :func:`batched_peak_with_candidate` instead.

    Args:
        current: current context tokens per request.
        remaining: remaining tokens per request, same length as ``current``.

    Returns:
        The peak, 0 for an empty batch.
    """
    if len(current) != len(remaining):
        raise ValueError("current and remaining must have the same shape")
    if min(current, default=0) < 0 or min(remaining, default=0) < 0:
        raise ValueError("token counts must be non-negative")
    peak = total = 0
    ranked = sorted(zip(remaining, current), key=itemgetter(0), reverse=True)
    for count, (left, tokens) in enumerate(ranked, 1):
        total += tokens
        value = total + left * count  # Eq. 3
        if value > peak:
            peak = value
    return peak


def _peaks(current: np.ndarray, remaining: np.ndarray) -> np.ndarray:
    """:func:`peak_future_memory` of each row of validated int64 ``(rows, batch)`` arrays."""
    order = np.argsort(-remaining, axis=-1, kind="stable")
    # One flat gather per operand: offsetting each row's sort order into
    # the raveled rows is about twice as fast as take_along_axis at 2 and
    # at 32 rows of a few dozen entries.
    rows, batch = current.shape
    order += batch * np.arange(rows, dtype=np.int64)[:, None]
    current_sorted, remaining_sorted = current.ravel()[order], remaining.ravel()[order]
    counts = np.arange(1, batch + 1, dtype=np.int64)
    # Every Eq. 3 value is non-negative, so ``initial=0`` only covers empty batches.
    return (np.cumsum(current_sorted, axis=-1) + remaining_sorted * counts).max(axis=-1, initial=0)


def memory_timeline(
    current: np.ndarray | Sequence[int],
    remaining: np.ndarray | Sequence[int],
) -> list[int]:
    """Occupied tokens at every future decode step until the batch drains.

    Step 0 is "now".  At each subsequent step every unfinished request grows by
    one token; requests whose remaining generation is exhausted release all
    their tokens.  The maximum of this timeline equals
    :func:`peak_future_memory`; the full series is used by the
    admission walk-through example and the Figure 5/6 bench.

    Computed in one cumulative pass over the horizon: with requests sorted by
    remaining length, the survivors at step *s* are a suffix, so the occupied
    tokens are ``suffix_current_sum(s) + survivors(s) * s`` — no per-step
    Python loop.

    Args:
        current: ``(batch,)`` current context tokens per request.
        remaining: ``(batch,)`` remaining tokens per request.
    """
    current, remaining = _token_arrays(current, remaining, (1,))
    horizon = int(remaining.max(initial=0))
    order = np.argsort(remaining, kind="stable")
    remaining_sorted = remaining[order]
    prefix_current = np.concatenate(([0], np.cumsum(current[order])))
    steps = np.arange(horizon + 1, dtype=np.int64)
    # Requests with remaining < s have drained before step s; they form a
    # prefix of the ascending sort.
    drained = np.searchsorted(remaining_sorted, steps, side="left")
    survivors = remaining.size - drained
    occupied = (prefix_current[-1] - prefix_current[drained]) + survivors * steps
    return [int(x) for x in occupied]


def batched_peak_with_candidate(
    current: np.ndarray,
    remaining: np.ndarray,
    candidate_current: int,
    candidate_remaining: np.ndarray,
) -> np.ndarray:
    """Eq. 2–4 peaks of *batch + one candidate* for many what-if rows at once.

    Row ``k`` answers the question :meth:`FutureMemoryIndex.admit` tests
    against the budget for one iteration: what would the peak future memory
    be if the candidate joined the running batch whose per-request state is
    ``(current[k], remaining[k])``?  The saturated-phase event jump evaluates
    one row per upcoming iteration, so the whole proof window is a handful of
    vectorized array operations instead of per-iteration Python.

    The candidate is appended as the *last* column, and each row's stable
    descending sort (the one :func:`peak_future_memory` uses) places it
    after every incumbent with an equal remaining length — the
    same place :meth:`FutureMemoryIndex.admit` appends it — so row ``k`` is
    bit-identical (exact integer arithmetic) to the peak the reference
    admission loop tests.  The inputs are validated once,
    before the candidate column is appended.

    Args:
        current: ``(rows, batch)`` current context tokens per request.
        remaining: ``(rows, batch)`` predicted remaining tokens per request.
        candidate_current: the candidate's current context tokens (constant —
            a waiting request does not grow while it waits).
        candidate_remaining: ``(rows,)`` predicted remaining tokens of the
            candidate, one prediction per row.

    Returns:
        ``(rows,)`` int64 peak future memory with the candidate included.
    """
    current, remaining = _token_arrays(current, remaining, (2,))
    rows, batch = current.shape
    candidate_remaining = np.asarray(candidate_remaining, dtype=np.int64)
    if candidate_remaining.shape != (rows,):
        raise ValueError("candidate_remaining must have one entry per row")
    if candidate_current < 0 or np.any(candidate_remaining < 0):
        raise ValueError("token counts must be non-negative")
    trial_current = np.empty((rows, batch + 1), dtype=np.int64)
    trial_remaining = np.empty((rows, batch + 1), dtype=np.int64)
    trial_current[:, :batch] = current
    trial_current[:, batch] = candidate_current
    trial_remaining[:, :batch] = remaining
    trial_remaining[:, batch] = candidate_remaining
    return _peaks(trial_current, trial_remaining)


class FutureMemoryIndex:
    """The running batch of one admission pass, grown one admitted candidate at a time.

    The admission loop of the Past-Future and oracle schedulers asks, for each
    waiting candidate in FCFS order, "does the batch's peak future memory with
    this candidate added still fit the budget?"  :meth:`admit` answers with
    :func:`peak_future_memory` over the batch plus the candidate, and keeps
    the candidate only on a yes, so the next candidate is tested against
    everything admitted before it.  The batch is two plain lists: each test
    re-sorts the batch plus the candidate, so the index keeps no sorted
    state of its own.
    """

    __slots__ = ("_current", "_remaining")

    def __init__(self, current: Sequence[int], remaining: Sequence[int]) -> None:
        self._current = list(current)
        self._remaining = list(remaining)

    def admit(self, current_tokens: int, remaining_tokens: int, budget: int) -> bool:
        """Append the candidate iff the batch's Eq. 2–4 peak with it is at most ``budget``.

        The candidate goes last, so the stable sort places it after every
        resident with an equal remaining length; within such a tie the Eq. 3
        maximum sits at the last member whatever the order.
        """
        current = [*self._current, current_tokens]
        remaining = [*self._remaining, remaining_tokens]
        if peak_future_memory(current, remaining) > budget:
            return False
        self._current, self._remaining = current, remaining
        return True
