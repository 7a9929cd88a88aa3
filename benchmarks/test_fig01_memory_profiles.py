"""Figure 1: consumed vs future-required memory and eviction rate per scheduler.

The paper's opening figure contrasts the three scheduler families on a
prefill-heavy and a decode-heavy workload: conservative scheduling leaves
memory idle, aggressive scheduling pushes the *future* requirement past the
capacity (causing evictions, especially on decode-heavy loads), and the
Past-Future scheduler keeps the future requirement just below capacity with
few evictions.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CAPACITY_7B_A100, PREFILL_CAP_SCALED, scaled, write_report
from repro.analysis.experiments import FleetConfig, memory_report_from_run, run_experiment
from repro.analysis.tables import render_table
from repro.workloads.distributions import distribution_workload

SCHEDULERS = {
    "Conservative": ("conservative", {}),
    "Aggressive": ("aggressive", {"watermark": 0.99}),
    "Past-Future": ("past-future", {"reserved_fraction": 0.03, "seed": 1}),
}
NUM_REQUESTS = 120
NUM_CLIENTS = 48


def _profile(platform, workload_name: str) -> list[dict]:
    workload = scaled(distribution_workload(workload_name, NUM_REQUESTS, seed=101))
    rows = []
    for label, (scheduler_name, kwargs) in SCHEDULERS.items():
        config = FleetConfig(
            platform=platform,
            scheduler_name=scheduler_name,
            scheduler_kwargs=kwargs,
            num_clients=NUM_CLIENTS,
            token_capacity_override=CAPACITY_7B_A100,
            chunked_prefill_tokens=PREFILL_CAP_SCALED,
        )
        result = run_experiment(config, workload)
        assert result.completed
        report = memory_report_from_run(result)
        rows.append(
            {
                "workload": workload_name,
                "scheduler": label,
                "consumed_memory": f"{report.consumed_memory_fraction:.1%}",
                "future_required": f"{report.future_required_fraction:.1%}",
                "eviction_rate": f"{report.evicted_request_fraction:.1%}",
            }
        )
    return rows


@pytest.mark.benchmark(group="fig01")
def test_fig01_memory_profiles(benchmark, platform_7b, results_dir):
    def run() -> list[dict]:
        rows = []
        # Distribution-1 is the decode-heavy panel, Distribution-3 the
        # prefill-heavy panel of Figure 1.
        rows.extend(_profile(platform_7b, "Distribution-1"))
        rows.extend(_profile(platform_7b, "Distribution-3"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(
        results_dir,
        "fig01_memory_profiles",
        render_table(rows, title="Figure 1 — memory profiles and eviction rate per scheduler"),
    )

    by_key = {(r["workload"], r["scheduler"]): r for r in rows}

    def pct(row, column):
        return float(row[column].rstrip("%"))

    for workload in ("Distribution-1", "Distribution-3"):
        conservative = by_key[(workload, "Conservative")]
        aggressive = by_key[(workload, "Aggressive")]
        past_future = by_key[(workload, "Past-Future")]
        # Conservative wastes memory; the other two use much more of it.
        assert pct(conservative, "consumed_memory") < pct(past_future, "consumed_memory")
        assert pct(conservative, "consumed_memory") < pct(aggressive, "consumed_memory")
        # Past-Future evicts less than aggressive on both panels.
        assert pct(past_future, "eviction_rate") <= pct(aggressive, "eviction_rate")
    # Decode-heavy load is where the aggressive scheduler's evictions explode.
    assert pct(by_key[("Distribution-1", "Aggressive")], "eviction_rate") > \
        pct(by_key[("Distribution-3", "Aggressive")], "eviction_rate")
