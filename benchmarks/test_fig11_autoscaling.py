"""Figure 11 (repo extension): fleet efficiency by autoscaling policy.

Figure 10 fixed the fleet and varied the router; this benchmark fixes the
router and varies *how many replicas exist*.  An elastic fleet of the scaled
Llama-2-7B platform serves a bursty ShareGPT-o1 trace under three
autoscaling policies (:mod:`repro.serving.autoscale`):

* **static** — peak-provisioned at ``MAX_REPLICAS`` for the whole run, the
  baseline a capacity planner would buy to survive the worst burst;
* **reactive** — threshold scaling on the windowed saturation rate: it only
  grows *after* arrivals observe saturated replicas, so every scale-up pays
  the full warm-up delay inside the burst;
* **predictive** — the paper's future-memory forecast lifted to the fleet
  axis: queued prompts plus predicted output growth (Eq. 2–4 over the
  sliding output-length window) make a burst's KV demand visible before any
  replica saturates, so capacity is warming while the burst is still
  building.

The headline metric is **goodput per replica-second** — SLA-compliant tokens
per unit of provisioned fleet cost.  The expected ordering under bursty
traffic, checked on every trace: predictive > reactive > static.  Static
wastes replica-seconds idling through every lull; reactive saves cost but
bleeds goodput to warm-up lag; predictive keeps near-static SLA attainment
at roughly half the replica-seconds.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    CAPACITY_7B_A100,
    PREFILL_CAP_SCALED,
    SCALE,
    scaled,
    write_report,
)
from repro.analysis.experiments import FleetConfig, sweep
from repro.analysis.tables import autoscale_table, render_table
from repro.serving.autoscale import (
    Autoscaler,
    available_autoscale_policies,
    create_autoscale_policy,
)
from repro.serving.sla import SLASpec
from repro.workloads.arrivals import assign_bursty_arrivals
from repro.workloads.sharegpt import generate_sharegpt_o1_workload

NUM_REQUESTS = 400
MAX_REPLICAS = 6

#: Same tightened SLA as the fig10 cluster benchmark (see its rationale).
SLA_SCALED_CLUSTER = SLASpec(ttft_limit=2.5, mtpot_limit=0.5)

#: Two bursty-traffic configurations (workload seed, arrival seed).  Each
#: cycle is an ~8 s wave of 80 requests at 10 req/s followed by a ~40 s lull
#: at 0.5 req/s — waves oversubscribe a small fleet's KV capacity, lulls
#: leave a peak-provisioned fleet mostly idle.
BURSTY_CONFIGS = {
    "burst-a": (71, 9),
    "burst-b": (73, 11),
}

#: Each replica gets 1/8 of the scaled 7B capacity (as in fig10).
REPLICA_CAPACITY = CAPACITY_7B_A100 // 8

#: Elastic policies must commit capacity ~3 s before it can serve — roughly
#: a third of a burst wave, so forecasting ahead of saturation matters.
WARMUP_DELAY = 3.0

#: Constructor overrides giving each elastic policy a fair shot at this
#: trace: reactive triggers early-ish with a short cooldown, predictive uses
#: the scaled preset max output (2048/16) as its cold-start length.
POLICY_KWARGS = {
    "reactive": {"scale_up_threshold": 0.25, "scale_down_threshold": 0.02, "cooldown": 2.0},
    "predictive": {
        "target_utilization": 0.8,
        "scale_down_cooldown": 6.0,
        "default_length": int(2048 * SCALE),
    },
}


def bursty_workload(workload_seed: int, arrival_seed: int):
    workload = scaled(generate_sharegpt_o1_workload(NUM_REQUESTS, seed=workload_seed))
    return assign_bursty_arrivals(
        workload,
        base_rate=0.5,
        burst_rate=10.0,
        burst_length=80,
        cycle_length=100,
        seed=arrival_seed,
    )


def run_config(platform, workload_seed: int, arrival_seed: int):
    workload = bursty_workload(workload_seed, arrival_seed)
    config = FleetConfig(
        platform=platform,
        router="least-outstanding",
        num_replicas=2,
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        token_capacity_override=REPLICA_CAPACITY,
        chunked_prefill_tokens=PREFILL_CAP_SCALED,
    )
    shared = {
        "interval": 0.5,
        "max_replicas": MAX_REPLICAS,
        "warmup_delay": WARMUP_DELAY,
        "sample_window": 4.0,
    }
    variants = {
        name: {
            "autoscaler": Autoscaler(create_autoscale_policy(name, **POLICY_KWARGS.get(name, {})), **shared)
        }
        for name in available_autoscale_policies()
    }
    return sweep(config, workload, variants)


@pytest.mark.benchmark(group="fig11")
@pytest.mark.parametrize("config_name", list(BURSTY_CONFIGS))
def test_fig11_autoscaling(benchmark, platform_7b, results_dir, config_name):
    workload_seed, arrival_seed = BURSTY_CONFIGS[config_name]
    results = benchmark.pedantic(
        run_config, args=(platform_7b, workload_seed, arrival_seed), rounds=1, iterations=1
    )
    report = render_table(
        autoscale_table(results, SLA_SCALED_CLUSTER),
        title=(
            f"Figure 11 — fleet efficiency by autoscaling policy, Llama-2-7B "
            f"(1/{int(1 / SCALE)} scale), warmup {WARMUP_DELAY:g}s, "
            f"bursty ShareGPT-o1 [{config_name}]"
        ),
    )
    write_report(results_dir, f"fig11_autoscaling_{config_name}", report)

    # Every run drains the full trace with nothing lost or left behind.
    for result in results.values():
        assert result.completed
        assert result.submitted_requests == NUM_REQUESTS
        assert len(result.finished_requests) == NUM_REQUESTS

    # Scale-down never drops admitted work: every retired replica finished
    # all of its resident requests before retiring.
    for result in results.values():
        retired = {life.replica_id: life for life in result.lifetimes if life.retired_at is not None}
        for replica_id, life in retired.items():
            replica = result.replicas[replica_id]
            assert all(r.is_finished for r in replica.requests)
            assert all(r.finish_time <= life.retired_at for r in replica.requests)

    # The static baseline really is static: the provisioned fleet never moves.
    assert all(s.provisioned == MAX_REPLICAS for s in results["static"].fleet_timeline)
    # The elastic policies really flexed: both grew beyond their initial two
    # replicas and paid substantially fewer replica-seconds than static.
    for name in ("reactive", "predictive"):
        assert max(s.provisioned for s in results[name].fleet_timeline) > 2
        assert results[name].replica_seconds < 0.8 * results["static"].replica_seconds

    efficiency = {
        name: result.goodput_per_replica_second(SLA_SCALED_CLUSTER)
        for name, result in results.items()
    }

    # Headline: forecast-driven elasticity beats saturation-chasing beats
    # peak provisioning on goodput per replica-second, with real margins.
    assert efficiency["predictive"] > 1.05 * efficiency["reactive"]
    assert efficiency["reactive"] > 1.15 * efficiency["static"]

    # The predictive win is not load shedding: it keeps near-static SLA
    # attainment while the reactive fleet bleeds compliance to warm-up lag.
    attainment = {
        name: result.fleet_summary(SLA_SCALED_CLUSTER).sla_attainment
        for name, result in results.items()
    }
    assert attainment["predictive"] >= 0.9
    assert attainment["predictive"] > attainment["reactive"]
