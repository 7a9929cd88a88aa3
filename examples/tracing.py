"""Tracing: capture a request-lifecycle timeline and export it for Perfetto.

Runs a small cluster (three replicas, round-robin routing) with a
``JsonlTracer`` attached, prints the event census and the engine's
jump-accounting summary, derives per-request queued/prefill/decode phases,
and writes a Chrome ``trace_event`` JSON you can open at
https://ui.perfetto.dev or chrome://tracing.

Run with:  python examples/tracing.py
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.analysis.experiments import FleetConfig, run_experiment
from repro.hardware.platform import paper_platform
from repro.obs.export import derive_request_phases, export_chrome_trace
from repro.obs.tracer import JsonlTracer, read_jsonl_trace
from repro.workloads.sharegpt import generate_sharegpt_workload
from repro.workloads.spec import scale_workload

TRACE_PATH = Path("results/tracing_example.jsonl")
CHROME_PATH = Path("results/tracing_example.trace.json")


def main() -> None:
    workload = scale_workload(generate_sharegpt_workload(60, seed=11), 0.25)
    config = FleetConfig(
        platform=paper_platform("7b-a100"),
        num_replicas=3,
        router="least-outstanding",
        scheduler_name="past-future",
        scheduler_kwargs={"reserved_fraction": 0.05, "seed": 7},
        num_clients=12,
        token_capacity_override=2048,
    )

    with JsonlTracer(TRACE_PATH) as tracer:
        result = run_experiment(config, workload, tracer=tracer)

    events = read_jsonl_trace(TRACE_PATH)
    print(f"Run completed={result.completed}: {len(events)} events in {TRACE_PATH}")
    for name, count in sorted(Counter(event.name for event in events).items()):
        print(f"  {name}: {count}")

    jump = result.jump_stats.summary()
    print(
        f"\nJump accounting: {jump['steps_fused']} iterations fused across "
        f"{jump['jumps']} macro-steps ({jump['fused_fraction']:.1%} of all iterations; "
        f"{jump['silent_jumps']} silent, {jump['saturated_jumps']} saturated)"
    )

    phases = derive_request_phases(events)
    for name in ("queued", "prefill", "decode"):
        durations = sorted(p.duration for p in phases if p.name == name)
        mid = durations[len(durations) // 2]
        print(f"  {name}: {len(durations)} phases, p50 {mid:.3f}s, max {durations[-1]:.3f}s")

    export_chrome_trace(events, CHROME_PATH)
    print(f"\nChrome trace written to {CHROME_PATH} — open it at https://ui.perfetto.dev")
    print(f"Terminal report:  python tools/trace_report.py {TRACE_PATH}")


if __name__ == "__main__":
    main()
