"""Output-length distribution prediction (Section 3.2, Equation 1).

The predictor turns the historical window into an empirical distribution
``P(l)`` and provides the two sampling operations Algorithm 1 needs:

* for **queued** requests, sample a predicted total output length from
  ``P(l)``;
* for **running** requests that have already generated ``l_cur`` tokens,
  resample from the *conditional* distribution ``P(l | l > l_cur)`` so the
  prediction can only stay ahead of what has actually been produced.

When the running batch is small the paper repeats the sampling several times
to stabilise the estimate; ``num_samples`` exposes that knob, and the
repeated samples combine by ``max`` (:func:`aggregate_samples`), which keeps
the estimate on the safe side, as admission control wants.  The window is
ascending, so only each request's largest draw needs mapping to a length.

Because the RNG stream is part of the reproduced semantics (see
``docs/simulation-semantics.md``), each sampling call documents exactly what
it draws from the generator: the Past-Future scheduler's saturated-phase
proof rebuilds those draws from the raw stream, and the generator itself is
``default_rng(seed)`` built from a cached seed hash
(:mod:`repro.core.rng_streams`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import rng_streams
from repro.core.history import OutputLengthHistory


def aggregate_samples(samples: np.ndarray) -> np.ndarray:
    """Collapse the sample axis (axis ``-2``) of a ``(..., num_samples, n)`` array by ``max``."""
    return samples.max(axis=-2)


def conditional_prediction_samples(
    sorted_lengths: np.ndarray,
    uniforms: np.ndarray,
    generated: np.ndarray,
) -> np.ndarray:
    """Map pre-drawn uniforms to conditional length samples ``P(l | l > generated)``.

    The shared kernel behind :meth:`OutputLengthPredictor.predict_running`
    and the Past-Future scheduler's batched saturated-phase admission path
    (which stacks the draws of several per-iteration predictors and maps
    them in one call).  The map is elementwise and monotone in each uniform,
    so callers map only the largest: ``aggregate_samples(uniforms)``.

    Args:
        sorted_lengths: the historical window, ascending.
        uniforms: samples in ``[0, 1)``.
        generated: generated-token counts; broadcast against ``uniforms``.

    Returns:
        Length samples with the broadcast shape.  Entries whose generated
        count meets or exceeds every historical length fall back to
        ``generated + 1`` (the most optimistic consistent estimate).
    """
    n = sorted_lengths.size
    # Index of the first historical length strictly greater than each
    # generated count; everything at or beyond it is a valid sample.
    starts = np.searchsorted(sorted_lengths, generated, side="right")
    # Draw a uniform index in [start, n); exhausted tails handled below.
    spans = np.maximum(n - starts, 1)
    indices = starts + np.floor(uniforms * spans).astype(np.int64)
    np.minimum(indices, n - 1, out=indices)
    predictions = sorted_lengths[indices]
    exhausted = starts >= n
    if exhausted.any():
        predictions = np.where(exhausted, generated + 1, predictions)
    return predictions


@dataclass
class OutputLengthPredictor:
    """Samples predicted output lengths from a history's empirical distribution.

    Args:
        history: the historical window; sampling reads its cached ascending
            snapshot (:meth:`OutputLengthHistory.sorted_snapshot`), so
            building one predictor per consult costs no sort.
        seed: RNG seed for reproducible sampling, an ``int`` in ``[0, 2**64)``.
        num_samples: how many independent samples to draw per request; their
            maximum is the prediction.
    """

    history: OutputLengthHistory
    seed: int = 0
    num_samples: int = 1

    def __post_init__(self) -> None:
        """Validate the sample count and seed, take the sorted window, seed the RNG."""
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        self._sorted = self.history.sorted_snapshot()
        self._rng = rng_streams.generator(self.seed)

    # ------------------------------------------------------------ distribution

    # ---------------------------------------------------------------- sampling
    def predict_new(self, count: int) -> np.ndarray:
        """Sample predicted output lengths for ``count`` queued requests.

        Draws what ``choice(window, (num_samples, count))`` draws and keeps
        each request's largest index, the largest sample of the ascending window.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        indices = self._rng.integers(0, self._sorted.size, (self.num_samples, count))
        return self._sorted[aggregate_samples(indices)]

    def predict_running(self, generated: np.ndarray | list[int]) -> np.ndarray:
        """Resample predictions for running requests from ``P(l | l > generated)``.

        For a request whose generated token count already exceeds every length
        in the window, the prediction falls back to ``generated + 1`` — the
        most optimistic consistent estimate (the request may stop at the very
        next token), matching the scheduler's behaviour of trusting the
        history only while it remains informative.

        The whole batch is one ``(num_samples, n)`` uniform draw (none for an
        empty batch): the draw the Past-Future scheduler's saturated-phase
        proof rebuilds from the raw stream.
        """
        generated_arr = np.asarray(generated, dtype=np.int64)
        if generated_arr.ndim != 1:
            raise ValueError("generated must be 1-D")
        if np.any(generated_arr < 0):
            raise ValueError("generated token counts must be non-negative")
        uniforms = self._rng.random((self.num_samples, generated_arr.size))
        return conditional_prediction_samples(self._sorted, aggregate_samples(uniforms), generated_arr)
