"""Figures 5 and 6: memory-demand timelines of admitting a request at different steps.

These are the paper's worked token-level examples.  Figure 5 shows that the
same queued request produces a different peak memory demand depending on when
it joins the batch.  Figure 6 contrasts the three scheduler families on a
21-token system: the aggressive scheduler admits at *t* and later overflows,
the conservative scheduler waits until a running request has fully finished,
and the future-aware scheduler admits at the first step whose projected peak
fits the capacity.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_report
from repro.analysis.tables import render_table
from repro.core.future_memory import memory_timeline, peak_future_memory

#: The Figure 6 running batch at time t: (current KV tokens, remaining outputs).
RUNNING_BATCH = [(7, 1), (5, 2), (4, 3)]
#: The queued request: 2 prompt tokens, 2 output tokens.
NEW_REQUEST_PROMPT = 2
NEW_REQUEST_OUTPUT = 2
#: System token capacity in the example.
CAPACITY = 21


def _batch_after(steps: int) -> list[tuple[int, int]]:
    """The running batch as it will look ``steps`` decode iterations later."""
    return [
        (current + steps, remaining - steps)
        for current, remaining in RUNNING_BATCH
        if remaining > steps
    ]


def admission_peaks(max_delay: int = 3) -> list[dict]:
    """Projected peak memory if the queued request is admitted after each delay."""
    rows = []
    for delay in range(max_delay + 1):
        current, remaining = zip(*_batch_after(delay), (NEW_REQUEST_PROMPT, NEW_REQUEST_OUTPUT))
        peak = peak_future_memory(current, remaining)
        rows.append(
            {
                "admit_at": f"t+{delay}" if delay else "t",
                "projected_peak": peak,
                "fits_capacity": peak <= CAPACITY,
                "timeline": " ".join(str(v) for v in memory_timeline(current, remaining)),
            }
        )
    return rows


@pytest.mark.benchmark(group="fig06")
def test_fig06_admission_timeline(benchmark, results_dir):
    rows = benchmark.pedantic(admission_peaks, rounds=1, iterations=1)
    write_report(
        results_dir,
        "fig06_admission_timeline",
        render_table(rows, title="Figures 5/6 — projected peak memory vs admission step (capacity 21)"),
    )

    peaks = {row["admit_at"]: row["projected_peak"] for row in rows}
    fits = {row["admit_at"]: row["fits_capacity"] for row in rows}

    # Figure 6: admitting immediately (the aggressive choice) oversubscribes the
    # 21-token system (the paper's M*_t = 22 > 21), which forces an eviction...
    assert peaks["t"] == 22
    assert not fits["t"]
    # ...waiting one step (the future-aware choice) fits within the capacity...
    assert fits["t+1"]
    # ...and the conservative scheduler, which waits for worst-case headroom,
    # admits even later — also safe, but wasting decoding opportunity.
    assert fits["t+2"]
    # Figure 5's point: the projected peak strictly decreases as admission is
    # delayed while requests keep draining.
    assert peaks["t"] > peaks["t+1"] >= peaks["t+2"]
