"""Figure 3: cosine similarity of output-length distributions across trace windows.

For each of the six service traces the paper partitions requests into windows
of 1000 and compares every pair of windows.  The reproduction checks the two
structural findings: adjacent windows are always highly similar (bright
diagonal), and single-service traces are additionally similar globally while
the mixed API trace is not.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_report
from repro.analysis.tables import render_table
from repro.metrics.similarity import window_similarity_matrix
from repro.workloads.burstgpt import FIGURE3_TRACES, figure3_trace

REQUESTS_PER_TRACE = 12_000


@pytest.mark.benchmark(group="fig03")
def test_fig03_window_similarity(benchmark, results_dir):
    def run() -> list[dict]:
        rows = []
        for label in FIGURE3_TRACES:
            trace = figure3_trace(label, REQUESTS_PER_TRACE, seed=31)
            matrix = window_similarity_matrix(trace.output_lengths)
            rows.append(
                {
                    "trace": label,
                    "windows": matrix.num_windows,
                    "adjacent_similarity": round(matrix.diagonal_mean(), 3),
                    "global_similarity": round(matrix.global_mean(), 3),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(
        results_dir,
        "fig03_window_similarity",
        render_table(rows, title="Figure 3 — window similarity of output-length distributions"),
    )

    by_trace = {row["trace"]: row for row in rows}
    # Adjacent windows are similar for every trace (the diagonal pattern).
    for row in rows:
        assert row["adjacent_similarity"] > 0.8
    # Single-service traces are globally stable...
    for label, kind in FIGURE3_TRACES.items():
        if kind == "conversation":
            assert by_trace[label]["global_similarity"] > 0.85
    # ...while the mixed API trace drifts: its global similarity is clearly
    # below its adjacent-window similarity.
    api = by_trace["(b) BurstGPT API"]
    assert api["global_similarity"] < api["adjacent_similarity"] - 0.03
