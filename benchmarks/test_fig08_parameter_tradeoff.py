"""Figure 8: decoding steps vs evicted requests for different scheduler parameters.

The paper constructs a workload with a shifting output-length distribution
(ShareGPT-o1 followed by Distribution-1, -2 and -3) and sweeps each
scheduler's tuning knob: reserved memory for Past-Future, memory watermark for
the aggressive scheduler, and overcommit for the conservative scheduler.  The
headline result is that no setting of the baselines reaches the Past-Future
points: baselines either evict a lot or take many extra decoding steps,
whereas the Past-Future points sit near the oracle corner.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CAPACITY_7B_A100, PREFILL_CAP_SCALED, scaled, write_report
from repro.analysis.experiments import FleetConfig
from repro.analysis.sweep import parameter_sweep
from repro.analysis.tables import render_table
from repro.workloads.mixed import generate_varying_load

REQUESTS_PER_PHASE = 45
NUM_CLIENTS = 48


def _variant(scheduler_name: str, **scheduler_kwargs: object) -> dict[str, object]:
    return {"scheduler_name": scheduler_name, "scheduler_kwargs": scheduler_kwargs}


VARIANTS = {
    "Optimum": _variant("oracle"),
    "Past-Future reserved=3%": _variant("past-future", reserved_fraction=0.03, seed=81, num_samples=4),
    "Past-Future reserved=5%": _variant("past-future", reserved_fraction=0.05, seed=81, num_samples=4),
    "Past-Future reserved=10%": _variant("past-future", reserved_fraction=0.10, seed=81, num_samples=4),
    "Past-Future reserved=20%": _variant("past-future", reserved_fraction=0.20, seed=81, num_samples=4),
    "Aggressive watermark=99%": _variant("aggressive", watermark=0.99),
    "Aggressive watermark=90%": _variant("aggressive", watermark=0.90),
    "Aggressive watermark=80%": _variant("aggressive", watermark=0.80),
    "Aggressive watermark=70%": _variant("aggressive", watermark=0.70),
    "Conservative overcommit=100%": _variant("conservative", overcommit=1.00),
    "Conservative overcommit=110%": _variant("conservative", overcommit=1.10),
    "Conservative overcommit=120%": _variant("conservative", overcommit=1.20),
    "Conservative overcommit=135%": _variant("conservative", overcommit=1.35),
}


@pytest.mark.benchmark(group="fig08")
def test_fig08_parameter_tradeoff(benchmark, platform_7b, results_dir):
    workload = scaled(generate_varying_load(REQUESTS_PER_PHASE, seed=88))

    def run():
        config = FleetConfig(
            platform=platform_7b,
            num_clients=NUM_CLIENTS,
            token_capacity_override=CAPACITY_7B_A100,
            chunked_prefill_tokens=PREFILL_CAP_SCALED,
        )
        return parameter_sweep(config, workload, VARIANTS)

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [p.as_row() for p in points]
    write_report(
        results_dir,
        "fig08_parameter_tradeoff",
        render_table(rows, title="Figure 8 — decoding steps vs evicted requests on the varying-distribution load"),
    )

    by_label = {p.parameter: p for p in points}
    optimum = by_label["Optimum"]
    past_future = [p for p in points if p.parameter.startswith("Past-Future")]
    aggressive = [p for p in points if p.parameter.startswith("Aggressive")]
    conservative = [p for p in points if p.parameter.startswith("Conservative")]

    # The oracle evicts nothing and no eviction-free baseline beats its steps.
    assert optimum.evicted_fraction == 0.0
    assert by_label["Conservative overcommit=100%"].decoding_steps >= optimum.decoding_steps

    # Every Past-Future setting keeps evictions moderate while staying within
    # ~35% of the oracle's decoding steps (the paper's recommended 3-5%
    # reserve stays within ~10%).
    for point in past_future:
        assert point.evicted_fraction < 0.35
        assert point.decoding_steps <= 1.35 * optimum.decoding_steps
    recommended = [p for p in past_future if "3%" in p.parameter or "5%" in p.parameter]
    for point in recommended:
        assert point.decoding_steps <= 1.12 * optimum.decoding_steps

    # The baselines cannot match that trade-off: any aggressive/conservative
    # setting that is as fast as the best Past-Future point evicts more, and
    # any setting that evicts as little is slower.
    best_pf_steps = min(p.decoding_steps for p in past_future)
    best_pf_evictions = min(p.evicted_fraction for p in past_future)
    for point in aggressive + conservative:
        comparable_speed = point.decoding_steps <= best_pf_steps * 1.02
        comparable_evictions = point.evicted_fraction <= max(best_pf_evictions, 0.02)
        assert not (comparable_speed and comparable_evictions), (
            f"{point.parameter} dominates the Past-Future trade-off"
        )

    # Within each family the knob trades steps against evictions monotonically
    # (more reserve / lower watermark -> fewer evictions, more steps).
    reserves = [p for p in past_future]
    assert reserves[0].evicted_fraction >= reserves[-1].evicted_fraction
    assert reserves[0].decoding_steps <= reserves[-1].decoding_steps
    watermarks = [p for p in aggressive]
    assert watermarks[0].evicted_fraction >= watermarks[-1].evicted_fraction
