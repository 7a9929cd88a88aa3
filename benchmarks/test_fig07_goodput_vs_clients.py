"""Figure 7: goodput vs number of concurrent clients for each scheduler.

The paper sweeps the client count on four datasets (ShareGPT-o1 and
Distribution-1/2/3) and three model sizes.  The reproduction runs the
Llama-2-7B panel for all four datasets on the scaled A100 platform and checks
the curve shapes: all schedulers coincide at light load, the conservative
scheduler saturates lowest, the aggressive scheduler's goodput degrades under
heavy decode-heavy load, and the Past-Future scheduler reaches the highest
plateau.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    CAPACITY_7B_A100,
    PREFILL_CAP_SCALED,
    SLA_SCALED_SMALL,
    scaled,
    write_report,
)
from repro.analysis.experiments import FleetConfig
from repro.analysis.sweep import best_goodput, scheduler_comparison_sweep
from repro.analysis.tables import render_curves
from repro.workloads.distributions import distribution_workload
from repro.workloads.sharegpt import generate_sharegpt_o1_workload

CLIENT_COUNTS = (8, 16, 32, 64, 128)
NUM_REQUESTS = 250

SCHEDULER_CONFIGS = {
    "Conservative": {"scheduler_name": "conservative"},
    "Aggressive": {"scheduler_name": "aggressive", "scheduler_kwargs": {"watermark": 0.99}},
    "Past-Future": {
        "scheduler_name": "past-future",
        "scheduler_kwargs": {"reserved_fraction": 0.03, "seed": 7, "num_samples": 4},
    },
}

DATASETS = {
    "ShareGPT-o1": lambda: generate_sharegpt_o1_workload(NUM_REQUESTS, seed=71),
    "Distribution-1": lambda: distribution_workload("Distribution-1", NUM_REQUESTS, seed=72),
    "Distribution-2": lambda: distribution_workload("Distribution-2", NUM_REQUESTS, seed=73),
    "Distribution-3": lambda: distribution_workload("Distribution-3", NUM_REQUESTS, seed=74),
}


def run_dataset(platform, dataset_name: str):
    workload = scaled(DATASETS[dataset_name]())
    config = FleetConfig(
        platform=platform,
        token_capacity_override=CAPACITY_7B_A100,
        chunked_prefill_tokens=PREFILL_CAP_SCALED,
    )
    return scheduler_comparison_sweep(
        config,
        workload,
        client_counts=CLIENT_COUNTS,
        scheduler_configs=SCHEDULER_CONFIGS,
        sla=SLA_SCALED_SMALL,
    )


@pytest.mark.benchmark(group="fig07")
@pytest.mark.parametrize("dataset_name", list(DATASETS))
def test_fig07_goodput_vs_clients(benchmark, platform_7b, results_dir, dataset_name):
    curves = benchmark.pedantic(run_dataset, args=(platform_7b, dataset_name), rounds=1, iterations=1)
    report = render_curves(
        curves,
        x_label="clients",
        x_getter=lambda p: p.num_clients,
        y_getter=lambda p: p.goodput,
        title=f"Figure 7 — goodput (tokens/s) vs clients, Llama-2-7B, {dataset_name}",
    )
    write_report(results_dir, f"fig07_goodput_{dataset_name.lower()}", report)

    past_future = curves["Past-Future"]
    aggressive = curves["Aggressive"]
    conservative = curves["Conservative"]

    # At light load all schedulers perform alike (within 25%).
    light = {name: points[0].goodput for name, points in curves.items()}
    assert max(light.values()) <= 1.25 * max(min(light.values()), 1e-9)

    # The Past-Future scheduler reaches the best (or tied-best) peak goodput.
    assert best_goodput(past_future) >= 0.95 * best_goodput(aggressive)
    assert best_goodput(past_future) >= 0.95 * best_goodput(conservative)

    # Far past saturation the curves get noisy (every scheduler is mostly
    # TTFT-bound), but the Past-Future scheduler never collapses below the
    # baselines by a large margin.
    assert past_future[-1].goodput >= aggressive[-1].goodput * 0.7
    assert past_future[-1].goodput >= conservative[-1].goodput

    if dataset_name in ("ShareGPT-o1", "Distribution-1"):
        # Decode-heavy panels: the aggressive scheduler loses goodput at high
        # concurrency relative to its own peak (the rise-then-fall shape).
        assert aggressive[-1].goodput < best_goodput(aggressive)
        # And the Past-Future scheduler clearly beats it at the heaviest load.
        assert past_future[-1].goodput > aggressive[-1].goodput
