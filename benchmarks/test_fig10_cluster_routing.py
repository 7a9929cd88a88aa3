"""Figure 10 (repo extension): fleet goodput by routing policy under bursts.

The paper evaluates past-future admission on a single engine; this benchmark
opens the fleet axis the ROADMAP targets.  Four replicas of the scaled
Llama-2-7B platform sit behind a router and serve a bursty ShareGPT-o1 trace
(on/off modulated Poisson arrivals).  Each replica runs the *aggressive*
(vLLM-style watermark) admission scheduler — the common production baseline —
so placement decides whether a replica's batch outgrows its KV pool and
thrashes through evictions.

The comparison replays the identical stamped trace through four routing
policies.  The headline check: the memory-aware router, which reuses the
paper's future-memory equations (Eq. 2–4) as a *placement* signal, achieves
strictly higher fleet goodput than load-blind round-robin on bursty traffic.
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
from repro.analysis.tables import fleet_table, render_table
from repro.serving.routing import available_routers
from repro.serving.sla import SLASpec
from repro.workloads.arrivals import assign_bursty_arrivals
from repro.workloads.sharegpt import generate_sharegpt_o1_workload

NUM_REPLICAS = 4
NUM_REQUESTS = 400

#: Scaled-cluster SLA.  TTFT is tightened from the paper's 10 s for the same
#: reason conftest tightens MTPOT: scaling request lengths by 1/16 shrinks
#: both service times and burst-induced queueing delays proportionally, so a
#: 2.5 s TTFT bound preserves the full-scale separation between "absorbed the
#: burst" and "queued behind a memory-bound replica".
SLA_SCALED_CLUSTER = SLASpec(ttft_limit=2.5, mtpot_limit=0.5)

#: Two bursty-traffic configurations (workload seed, arrival seed).  Both
#: alternate ~1 req/s lulls with 100 req/s waves of 80 requests, which
#: oversubscribes the fleet's KV capacity during every wave.
BURSTY_CONFIGS = {
    "burst-a": (71, 9),
    "burst-b": (73, 11),
}

#: Each replica gets 1/8 of the scaled 7B capacity: a four-replica fleet with
#: half the aggregate pool, so burst waves create genuine memory pressure.
REPLICA_CAPACITY = CAPACITY_7B_A100 // 8

#: One run per registered router over the identical stamped trace.
ROUTER_VARIANTS = {name: {"router": name} for name in available_routers()}


def bursty_workload(workload_seed: int, arrival_seed: int):
    workload = scaled(generate_sharegpt_o1_workload(NUM_REQUESTS, seed=workload_seed))
    return assign_bursty_arrivals(
        workload,
        base_rate=1.0,
        burst_rate=100.0,
        burst_length=80,
        cycle_length=100,
        seed=arrival_seed,
    )


def run_config(platform, workload_seed: int, arrival_seed: int):
    workload = bursty_workload(workload_seed, arrival_seed)
    config = FleetConfig(
        platform=platform,
        num_replicas=NUM_REPLICAS,
        router="round-robin",
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        token_capacity_override=REPLICA_CAPACITY,
        chunked_prefill_tokens=PREFILL_CAP_SCALED,
    )
    return sweep(config, workload, ROUTER_VARIANTS)


@pytest.mark.benchmark(group="fig10")
@pytest.mark.parametrize("config_name", list(BURSTY_CONFIGS))
def test_fig10_cluster_routing(benchmark, platform_7b, results_dir, config_name):
    workload_seed, arrival_seed = BURSTY_CONFIGS[config_name]
    results = benchmark.pedantic(
        run_config, args=(platform_7b, workload_seed, arrival_seed), rounds=1, iterations=1
    )
    report = render_table(
        fleet_table(results, SLA_SCALED_CLUSTER),
        title=(
            f"Figure 10 — fleet goodput by router, {NUM_REPLICAS}x Llama-2-7B "
            f"(1/{int(1 / SCALE)} scale), bursty ShareGPT-o1 [{config_name}]"
        ),
    )
    write_report(results_dir, f"fig10_cluster_routing_{config_name}", report)

    # Every run drains the full trace with nothing lost or left behind.
    for result in results.values():
        assert result.completed
        assert result.submitted_requests == NUM_REQUESTS
        assert result.routed_requests + len(result.rejected) == NUM_REQUESTS
        assert len(result.finished_requests) == NUM_REQUESTS

    goodput = {name: r.goodput(SLA_SCALED_CLUSTER) for name, r in results.items()}

    # Headline: future-memory-aware placement strictly beats load-blind
    # round-robin when bursts oversubscribe the fleet's KV capacity.
    assert goodput["memory-aware"] > goodput["round-robin"]

    # The memory-aware router is the best (or tied-best) policy overall.
    assert goodput["memory-aware"] >= 0.99 * max(goodput.values())

    # Placement only redistributes work; raw throughput barely moves while
    # goodput separates, i.e. the win comes from SLA compliance, not extra
    # tokens.
    throughput = {name: r.throughput() for name, r in results.items()}
    assert max(throughput.values()) <= 1.05 * min(throughput.values())


@pytest.mark.benchmark(group="fig10")
def test_fig10_light_load_routers_tie(benchmark, platform_7b, results_dir):
    """Sanity panel: with ample capacity and gentle traffic all routers tie."""

    def run_light():
        workload = assign_bursty_arrivals(
            scaled(generate_sharegpt_o1_workload(120, seed=75)),
            base_rate=2.0,
            burst_rate=20.0,
            seed=13,
        )
        config = FleetConfig(
            platform=platform_7b,
            num_replicas=NUM_REPLICAS,
            router="round-robin",
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.95},
            token_capacity_override=CAPACITY_7B_A100,
            chunked_prefill_tokens=PREFILL_CAP_SCALED,
        )
        return sweep(config, workload, ROUTER_VARIANTS)

    results = benchmark.pedantic(run_light, rounds=1, iterations=1)
    goodput = {name: r.goodput(SLA_SCALED_CLUSTER) for name, r in results.items()}
    assert max(goodput.values()) <= 1.05 * max(min(goodput.values()), 1e-9)
    report = render_table(
        fleet_table(results, SLA_SCALED_CLUSTER),
        title="Figure 10 (light load) — routers indistinguishable below saturation",
    )
    write_report(results_dir, "fig10_cluster_routing_light", report)
