"""Analyse output-length distribution stability across trace windows.

Reproduces the empirical observation behind the "Past" half of the scheduler
(Section 3.2 / Figures 3-4 of the paper): the output-length distribution of
the most recent window of requests predicts the next window, even for API
traces whose global mixture drifts over time.

Run with:  python examples/trace_similarity_analysis.py
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.metrics.similarity import adjacent_window_similarity, window_similarity_matrix
from repro.workloads.burstgpt import generate_api_trace, generate_conversation_trace


def main() -> None:
    traces = {
        "Conversation (single service)": generate_conversation_trace(20_000, seed=1),
        "API (mixed, drifting)": generate_api_trace(20_000, seed=2, drift_period=8_000),
    }

    rows = []
    for name, trace in traces.items():
        matrix = window_similarity_matrix(trace.output_lengths)
        rows.append(
            {
                "trace": name,
                "windows": matrix.num_windows,
                "adjacent_windows": f"{matrix.diagonal_mean():.3f}",
                "all_window_pairs": f"{matrix.global_mean():.3f}",
            }
        )
    print(render_table(rows, title="Cosine similarity of output-length histograms (window = 1000 requests)"))
    print()
    print("Adjacent windows stay similar even when the global mixture drifts —")
    print("this is why the scheduler predicts from the most recent finished requests.\n")

    rows = []
    for historical in (100, 500, 1000, 2000):
        result = adjacent_window_similarity(
            traces["API (mixed, drifting)"].output_lengths,
            historical_window=historical,
            running_window=500,
        )
        rows.append(
            {
                "historical_window": historical,
                "adjacent_similarity": f"{result.diagonal_mean:.3f}",
                "global_similarity": f"{result.global_mean:.3f}",
            }
        )
    print(render_table(rows, title="Effect of the historical window size (API trace, running window = 500)"))
    print("\nThe paper adopts a historical window of 1000 requests as a robust default.")


if __name__ == "__main__":
    main()
