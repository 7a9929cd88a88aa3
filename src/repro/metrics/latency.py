"""Per-request latency metrics: TTFT, TPOT, MTPOT and their percentiles.

Definitions follow Section 2.5 / 5.1 of the paper:

* **TTFT** (Time To First Token): arrival of the request to delivery of its
  first output token.
* **TPOT** (Time Per Output Token): gap between consecutive output tokens.
* **MTPOT** (Max TPOT): the *maximum* gap within a request — the paper argues
  this is the metric users actually feel, because a single long stall is
  visible even when the average is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine.request import Request


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate latency statistics over a set of finished requests."""

    count: int
    mean_ttft: float
    p99_ttft: float
    mean_tpot: float
    p99_mtpot: float
    max_mtpot: float


def finished_requests(requests: Sequence[Request]) -> list[Request]:
    """Requests that completed generation and delivered at least one token."""
    return [r for r in requests if r.is_finished and r.token_times]


def ttfts(requests: Sequence[Request]) -> np.ndarray:
    """TTFT values of all requests that delivered a first token."""
    values = [r.ttft for r in requests if r.ttft is not None]
    return np.array(values, dtype=float)


def mtpots(requests: Sequence[Request]) -> np.ndarray:
    """MTPOT values of all requests with at least two delivered tokens."""
    values = [r.max_tpot for r in requests if r.max_tpot is not None]
    return np.array(values, dtype=float)


def mean_tpots(requests: Sequence[Request]) -> np.ndarray:
    """Mean TPOT per request, for requests with at least two tokens."""
    values = [r.mean_tpot for r in requests if r.mean_tpot is not None]
    return np.array(values, dtype=float)


def percentile(values: np.ndarray, q: float) -> float:
    """Percentile helper that tolerates empty inputs (returns 0)."""
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def summarize_latency(requests: Sequence[Request]) -> LatencySummary:
    """Aggregate TTFT/TPOT/MTPOT statistics for a run."""
    done = finished_requests(requests)
    if not done:
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ttft_values = ttfts(done)
    mtpot_values = mtpots(done)
    tpot_values = mean_tpots(done)
    return LatencySummary(
        count=len(done),
        mean_ttft=float(ttft_values.mean()) if ttft_values.size else 0.0,
        p99_ttft=percentile(ttft_values, 99.0),
        mean_tpot=float(tpot_values.mean()) if tpot_values.size else 0.0,
        p99_mtpot=percentile(mtpot_values, 99.0),
        max_mtpot=float(mtpot_values.max()) if mtpot_values.size else 0.0,
    )
