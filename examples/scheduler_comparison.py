"""Compare the three scheduler families on a decode-heavy reasoning workload.

This reproduces the motivating scenario of the paper's introduction: a
ChatGPT-o1-style service whose outputs are much longer than its inputs.  The
script sweeps the number of concurrent clients for the conservative,
aggressive, and Past-Future schedulers and prints the goodput curves plus the
Table-1-style memory report at the heaviest load.

Run with:  python examples/scheduler_comparison.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.experiments import FleetConfig, memory_report_from_run, run_experiment
from repro.analysis.sweep import scheduler_comparison_sweep
from repro.analysis.tables import render_curves, render_table
from repro.hardware.platform import paper_platform
from repro.serving.sla import SLASpec
from repro.workloads.sharegpt import generate_sharegpt_o1_workload
from repro.workloads.spec import scale_workload

#: Scale request lengths (and the KV capacity below) so the sweep finishes in
#: a few seconds; scheduling behaviour depends only on the footprint/capacity
#: ratio, which is preserved.
SCALE = 1.0 / 16.0
SLA = SLASpec(ttft_limit=10.0, mtpot_limit=0.5)

SCHEDULERS = {
    "Conservative": {"scheduler_name": "conservative"},
    "Aggressive (vLLM-style)": {"scheduler_name": "aggressive", "scheduler_kwargs": {"watermark": 0.99}},
    "Past-Future (LightLLM)": {
        "scheduler_name": "past-future",
        "scheduler_kwargs": {"reserved_fraction": 0.03, "seed": 1, "num_samples": 4},
    },
}


def main() -> None:
    platform = paper_platform("7b-a100")
    capacity = int(platform.token_capacity * SCALE)
    workload = scale_workload(generate_sharegpt_o1_workload(250, seed=5), SCALE)
    print(f"Platform: {platform.describe()} (scaled capacity {capacity} tokens)")
    print(f"Workload: {workload.name} — decode-heavy chain-of-thought outputs\n")

    config = FleetConfig(
        platform=platform, token_capacity_override=capacity, chunked_prefill_tokens=512
    )
    curves = scheduler_comparison_sweep(
        config,
        workload,
        client_counts=(8, 32, 64, 128),
        scheduler_configs=SCHEDULERS,
        sla=SLA,
    )
    print(
        render_curves(
            curves,
            x_label="clients",
            x_getter=lambda p: p.num_clients,
            y_getter=lambda p: p.goodput,
            title="Goodput (tokens/s) vs concurrent clients",
        )
    )

    print("\nMemory behaviour at the heaviest load (128 clients):")
    rows = []
    for label, overrides in SCHEDULERS.items():
        result = run_experiment(replace(config, num_clients=128, **overrides), workload)
        report = memory_report_from_run(result)
        rows.append(
            {
                "scheduler": label,
                "decoding_steps": report.decoding_steps,
                "consumed_memory": f"{report.consumed_memory_fraction:.1%}",
                "future_required": f"{report.future_required_fraction:.1%}",
                "evicted_requests": f"{report.evicted_request_fraction:.1%}",
            }
        )
    print(render_table(rows))


if __name__ == "__main__":
    main()
