"""Table 1: decoding steps, memory utilisation and eviction rate per scheduler config.

The paper's ablation runs nine scheduler configurations (theoretical optimum,
Past-Future with 3/5/10% reserve, aggressive with 99/95/90% watermark,
conservative with and without overcommit) on Distribution-1/2/3 and reports
decoding steps, average consumed memory, average future-required memory, and
the fraction of evicted requests.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CAPACITY_7B_A100, PREFILL_CAP_SCALED, scaled, write_report
from repro.analysis.experiments import FleetConfig, memory_report_from_run, run_experiment
from repro.analysis.tables import render_table
from repro.workloads.distributions import distribution_workload

NUM_REQUESTS = 120
NUM_CLIENTS = 48

CONFIGURATIONS = [
    ("Theoretical optimum", "oracle", {}),
    ("Past-Future (reserved=3%)", "past-future", {"reserved_fraction": 0.03, "seed": 11}),
    ("Past-Future (reserved=5%)", "past-future", {"reserved_fraction": 0.05, "seed": 11}),
    ("Past-Future (reserved=10%)", "past-future", {"reserved_fraction": 0.10, "seed": 11}),
    ("Aggressive (watermark=99%)", "aggressive", {"watermark": 0.99}),
    ("Aggressive (watermark=95%)", "aggressive", {"watermark": 0.95}),
    ("Aggressive (watermark=90%)", "aggressive", {"watermark": 0.90}),
    ("Conservative (no overcommit)", "conservative", {}),
    ("Conservative (overcommit=150%)", "conservative", {"overcommit": 1.5}),
]

DATASETS = ("Distribution-1", "Distribution-2", "Distribution-3")


def run_dataset(platform, dataset: str) -> list[dict]:
    workload = scaled(distribution_workload(dataset, NUM_REQUESTS, seed=111))
    rows = []
    for label, scheduler_name, kwargs in CONFIGURATIONS:
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
                "dataset": dataset,
                "method": label,
                "decoding_steps": report.decoding_steps,
                "consumed_memory": f"{report.consumed_memory_fraction:.1%}",
                "future_required": f"{report.future_required_fraction:.1%}",
                "evicted_requests": f"{report.evicted_request_fraction:.1%}",
            }
        )
    return rows


def _pct(row: dict, key: str) -> float:
    return float(row[key].rstrip("%"))


@pytest.mark.benchmark(group="table1")
@pytest.mark.parametrize("dataset", DATASETS)
def test_table1_scheduler_ablation(benchmark, platform_7b, results_dir, dataset):
    rows = benchmark.pedantic(run_dataset, args=(platform_7b, dataset), rounds=1, iterations=1)
    write_report(
        results_dir,
        f"table1_{dataset.lower()}",
        render_table(rows, title=f"Table 1 — scheduler ablation on {dataset} (scaled Llama-2-7B / A100)"),
    )
    by_method = {row["method"]: row for row in rows}

    oracle = by_method["Theoretical optimum"]
    strict_conservative = by_method["Conservative (no overcommit)"]
    overcommit = by_method["Conservative (overcommit=150%)"]
    aggressive99 = by_method["Aggressive (watermark=99%)"]
    aggressive90 = by_method["Aggressive (watermark=90%)"]
    past_future3 = by_method["Past-Future (reserved=3%)"]
    past_future10 = by_method["Past-Future (reserved=10%)"]

    # The oracle and the strict conservative scheduler never evict.
    assert _pct(oracle, "evicted_requests") == 0.0
    assert _pct(strict_conservative, "evicted_requests") == 0.0

    # The strict conservative scheduler takes the most decoding steps and uses
    # the least memory; overcommitting recovers utilisation but adds evictions.
    assert strict_conservative["decoding_steps"] == max(r["decoding_steps"] for r in rows)
    assert _pct(strict_conservative, "consumed_memory") == min(_pct(r, "consumed_memory") for r in rows)
    assert _pct(overcommit, "consumed_memory") > _pct(strict_conservative, "consumed_memory")
    assert overcommit["decoding_steps"] < strict_conservative["decoding_steps"]
    assert _pct(overcommit, "evicted_requests") >= 0.0

    # Watermark/reserve knobs trade decoding steps against evictions in the
    # expected directions.
    assert _pct(aggressive99, "evicted_requests") >= _pct(aggressive90, "evicted_requests")
    assert aggressive99["decoding_steps"] <= aggressive90["decoding_steps"]
    assert _pct(past_future10, "evicted_requests") <= _pct(past_future3, "evicted_requests")
    assert past_future3["decoding_steps"] <= past_future10["decoding_steps"]

    # The Past-Future scheduler evicts far less than the aggressive scheduler
    # at comparable utilisation (the paper's headline ablation result).
    assert _pct(past_future3, "evicted_requests") < _pct(aggressive99, "evicted_requests")
    assert _pct(past_future3, "consumed_memory") > 0.8 * _pct(aggressive99, "consumed_memory")

    # Low-eviction policies cannot meaningfully beat the oracle on decoding
    # steps.  (The aggressive scheduler can take fewer iterations by
    # oversubscribing the pool — the paper's Table 1 shows the same — but it
    # pays in evictions; a 5% tolerance absorbs admission-order noise.)
    assert past_future3["decoding_steps"] >= 0.95 * oracle["decoding_steps"]
    assert strict_conservative["decoding_steps"] >= oracle["decoding_steps"]
