"""Token-level walkthrough of the future-required-memory admission decision.

Recreates the worked example of Figures 5 and 6 of the paper: a 21-token
system with three running requests and one queued request.  The script prints
the projected memory timeline for admitting the queued request at successive
decode steps, showing why the aggressive choice (admit now) overflows, the
conservative choice (wait for worst-case headroom) wastes time, and the
future-aware choice admits at exactly the right step.

Run with:  python examples/admission_walkthrough.py
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.future_memory import memory_timeline, peak_future_memory

CAPACITY = 21
#: Running batch at time t: (current KV tokens, remaining output tokens).
RUNNING = [(7, 1), (5, 2), (4, 3)]
#: Queued request: 2 prompt tokens, 2 output tokens.
QUEUED = (2, 2)


def batch_after(steps: int) -> list[tuple[int, int]]:
    """The running batch as it will look ``steps`` decode iterations later."""
    return [(current + steps, remaining - steps) for current, remaining in RUNNING if remaining > steps]


def main() -> None:
    print(f"System token capacity: {CAPACITY}")
    print("Running batch at time t (current tokens, remaining outputs):")
    for index, (current, remaining) in enumerate(RUNNING, start=1):
        print(f"  S{index}: current={current}, remaining={remaining}")
    print(f"Queued request: prompt={QUEUED[0]}, output={QUEUED[1]}\n")

    rows = []
    for delay in range(4):
        current, remaining = zip(*batch_after(delay), QUEUED)
        peak = peak_future_memory(current, remaining)
        rows.append(
            {
                "admit_at": f"t+{delay}" if delay else "t",
                "projected_peak": peak,
                "fits": "yes" if peak <= CAPACITY else "NO (eviction later)",
                "memory_timeline": " -> ".join(str(v) for v in memory_timeline(current, remaining)),
            }
        )
    print(render_table(rows, title="Projected memory if the queued request is admitted at each step"))
    print()
    print("An aggressive scheduler admits at t (peak 22 > 21) and must later evict;")
    print("a conservative scheduler waits for full worst-case headroom; the")
    print("Past-Future scheduler admits at t+1, the earliest step whose projected")
    print("peak fits the capacity.")


if __name__ == "__main__":
    main()
