"""Windowed output-length distribution similarity (Figures 3 and 4).

The paper partitions a request trace into consecutive windows of *w* requests,
builds an output-length histogram per window, and measures the cosine
similarity between every pair of windows.  Two findings drive the scheduler
design:

* adjacent windows (the matrix diagonal next to the main diagonal) are always
  highly similar, and
* for single-service traces the whole matrix is bright (globally stable),
  while API/hybrid traces are bright only near the diagonal (the mixture
  drifts over time).

This module reproduces those measurements: histogram construction, the full
pairwise similarity matrix, and the "global vs diagonal" averages of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.history import WINDOW_SIZE


def length_histogram(
    lengths: Sequence[int] | np.ndarray,
    bin_edges: np.ndarray,
) -> np.ndarray:
    """Normalised histogram of output lengths over fixed bin edges."""
    counts, _ = np.histogram(np.asarray(lengths, dtype=float), bins=bin_edges)
    total = counts.sum()
    if total == 0:
        return counts.astype(float)
    return counts.astype(float) / total


def default_bin_edges(max_length: int = 8192) -> np.ndarray:
    """Geometric bin edges (64 up to ``max_length``) for heavy-tailed output lengths."""
    if max_length <= 1:
        raise ValueError("max_length must be > 1")
    return np.unique(np.concatenate([[0.0], np.geomspace(1.0, max_length, 64)]))


def cosine_similarity(first: np.ndarray, second: np.ndarray) -> float:
    """Cosine similarity of two histograms (0 when either is all-zero)."""
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != second.shape:
        raise ValueError("histograms must have the same shape")
    norm = np.linalg.norm(first) * np.linalg.norm(second)
    if norm == 0:
        return 0.0
    return float(np.dot(first, second) / norm)


def partition_windows(lengths: Sequence[int], window_size: int) -> list[np.ndarray]:
    """Split a length sequence into consecutive non-overlapping windows.

    A trailing partial window smaller than ``window_size`` is dropped, matching
    the paper's "1000 requests, no overlap" setting.
    """
    if window_size <= 0:
        raise ValueError("window_size must be positive")
    values = np.asarray(lengths, dtype=np.int64)
    num_windows = values.size // window_size
    return [values[i * window_size:(i + 1) * window_size] for i in range(num_windows)]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise cosine-similarity matrix between trace windows."""

    matrix: np.ndarray

    @property
    def num_windows(self) -> int:
        """Number of windows compared."""
        return self.matrix.shape[0]

    def diagonal_mean(self) -> float:
        """Mean similarity of adjacent windows."""
        if self.num_windows <= 1:
            return 0.0
        return float(np.mean(np.diagonal(self.matrix, offset=1)))

    def global_mean(self) -> float:
        """Mean similarity over all distinct window pairs."""
        n = self.num_windows
        if n < 2:
            return 0.0
        upper = self.matrix[np.triu_indices(n, k=1)]
        return float(upper.mean())


def window_similarity_matrix(lengths: Sequence[int]) -> SimilarityMatrix:
    """Cosine-similarity matrix between the trace's :data:`WINDOW_SIZE` windows."""
    windows = partition_windows(lengths, WINDOW_SIZE)
    max_length = int(max(lengths)) if len(lengths) else 2
    bin_edges = default_bin_edges(max(max_length, 2))
    histograms = [length_histogram(window, bin_edges) for window in windows]
    n = len(histograms)
    matrix = np.ones((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            sim = cosine_similarity(histograms[i], histograms[j])
            matrix[i, j] = sim
            matrix[j, i] = sim
    return SimilarityMatrix(matrix=matrix)


@dataclass(frozen=True)
class AdjacentWindowSimilarity:
    """The Figure-4 quantities for one (historical, running) window pairing."""

    historical_window: int
    running_window: int
    diagonal_mean: float
    global_mean: float


def adjacent_window_similarity(
    lengths: Sequence[int],
    historical_window: int,
    running_window: int,
) -> AdjacentWindowSimilarity:
    """Similarity between each historical window and the running window that follows it.

    The historical window (size ``historical_window``) immediately precedes the
    running window (size ``running_window``); the pair slides through the trace
    with a stride of ``running_window``.  ``diagonal_mean`` averages the
    similarity of those adjacent pairs; ``global_mean`` averages the similarity
    of all (historical, running) pairs regardless of distance, reproducing the
    solid vs dashed lines in Figure 4.
    """
    if historical_window <= 0 or running_window <= 0:
        raise ValueError("window sizes must be positive")
    values = np.asarray(lengths, dtype=np.int64)
    max_length = int(values.max()) if values.size else 2
    bin_edges = default_bin_edges(max(max_length, 2))
    historical_hists: list[np.ndarray] = []
    running_hists: list[np.ndarray] = []
    position = historical_window
    while position + running_window <= values.size:
        historical = values[position - historical_window:position]
        running = values[position:position + running_window]
        historical_hists.append(length_histogram(historical, bin_edges))
        running_hists.append(length_histogram(running, bin_edges))
        position += running_window
    if not historical_hists:
        return AdjacentWindowSimilarity(historical_window, running_window, 0.0, 0.0)
    diagonal = [
        cosine_similarity(h, r) for h, r in zip(historical_hists, running_hists)
    ]
    cross: list[float] = []
    for i, historical_hist in enumerate(historical_hists):
        for j, running_hist in enumerate(running_hists):
            cross.append(cosine_similarity(historical_hist, running_hist))
    return AdjacentWindowSimilarity(
        historical_window=historical_window,
        running_window=running_window,
        diagonal_mean=float(np.mean(diagonal)),
        global_mean=float(np.mean(cross)),
    )
