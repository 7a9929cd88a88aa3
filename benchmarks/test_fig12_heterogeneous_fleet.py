"""Figure 12 (repo extension): heterogeneous fleets and SLA classes.

Figures 10/11 route over *identical* replicas; real clusters mix accelerator
generations.  This benchmark builds a mixed fleet — two Llama-2-7B/A100
replicas plus one Llama-2-7B/RTX-4090 replica, whose KV capacity is ~6.6x
smaller and whose decode bandwidth is ~2x lower — and serves a diurnal
ShareGPT-o1 trace (sinusoidal rate envelope over bursty on/off arrivals,
:func:`repro.workloads.arrivals.assign_diurnal_arrivals`) carrying two SLA
classes: 70% ``interactive`` requests under tight deadlines and 30% ``batch``
requests under loose ones.

The capacities are scaled per replica with ``capacity_scale`` (not one
absolute override), so the A100:4090 capacity *ratio* — the thing a
capacity-blind router gets wrong — survives the scaling.

The comparison replays the identical stamped trace through all four routers.
The headline check: the **capacity-normalised** memory-aware router (headroom
as a fraction of each replica's own capacity, weighted by relative decode
speed) beats **capacity-blind** least-outstanding routing on per-class
goodput-per-replica-second for *both* classes.  Least-outstanding equalises
request counts, so roughly a third of the trace lands on the small 4090 pool
and thrashes through evictions; the normalised router sends the 4090 only
what fits.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SCALE, write_report
from repro.analysis.experiments import FleetConfig, sweep
from repro.analysis.tables import fleet_class_table, fleet_table, render_table
from repro.hardware.platform import paper_platforms
from repro.serving.routing import available_routers
from repro.serving.sla import two_class_sla
from repro.workloads.arrivals import assign_diurnal_arrivals
from repro.workloads.sharegpt import generate_sharegpt_o1_workload
from repro.workloads.spec import (
    SLA_CLASS_BATCH,
    SLA_CLASS_INTERACTIVE,
    assign_sla_classes,
    scale_workload,
)

NUM_REQUESTS = 400

#: Per-replica capacity multiplier.  1/32 leaves the A100 replicas ~3.8k KV
#: slots and the 4090 ~580 — big enough that every scaled request physically
#: fits the 4090 (max prompt 256 + max output 256 tokens), small enough that
#: routing a third of the trace there melts it.
CAPACITY_SCALE = 1.0 / 32.0

#: Two-class SLA: interactive deadlines match the fig10 scaled-cluster SLA;
#: batch tolerates 4x the TTFT and 3x the inter-token gap.
SLA_TWO_CLASS = two_class_sla(interactive=(2.5, 0.5), batch=(10.0, 1.5))

#: Class mix stamped onto the trace.
CLASS_FRACTIONS = {SLA_CLASS_INTERACTIVE: 0.7, SLA_CLASS_BATCH: 0.3}

#: Diurnal-traffic configurations (workload seed, class seed, arrival seed).
#: The envelope swings +-60% over a 60 s period on top of 1->60 req/s on/off
#: bursts, so the fleet sees slow tides and fast waves at once.
DIURNAL_CONFIGS = {
    "diurnal-a": (71, 5, 9),
    "diurnal-b": (73, 6, 11),
}


def mixed_fleet():
    """Two A100 replicas plus one RTX-4090 replica, all serving 7B."""
    return paper_platforms("7b-a100", "7b-a100", "7b-4090")


def diurnal_workload(workload_seed: int, class_seed: int, arrival_seed: int):
    workload = scale_workload(
        generate_sharegpt_o1_workload(NUM_REQUESTS, seed=workload_seed, max_new_tokens=4096),
        SCALE,
    )
    workload = assign_sla_classes(workload, CLASS_FRACTIONS, seed=class_seed)
    return assign_diurnal_arrivals(
        workload,
        base_rate=1.0,
        burst_rate=60.0,
        period=60.0,
        amplitude=0.6,
        burst_length=60,
        cycle_length=100,
        seed=arrival_seed,
    )


def run_config(workload_seed: int, class_seed: int, arrival_seed: int):
    workload = diurnal_workload(workload_seed, class_seed, arrival_seed)
    config = FleetConfig(
        platforms=mixed_fleet(),
        num_replicas=3,
        router="round-robin",
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        capacity_scale=CAPACITY_SCALE,
        chunked_prefill_tokens=int(8192 * SCALE),
    )
    return sweep(config, workload, {name: {"router": name} for name in available_routers()})


@pytest.mark.benchmark(group="fig12")
@pytest.mark.parametrize("config_name", list(DIURNAL_CONFIGS))
def test_fig12_heterogeneous_fleet(benchmark, results_dir, config_name):
    seeds = DIURNAL_CONFIGS[config_name]
    results = benchmark.pedantic(run_config, args=seeds, rounds=1, iterations=1)
    title = (
        f"Figure 12 — mixed 2x A100 + 1x RTX-4090 fleet (1/{int(1 / SCALE)} scale), "
        f"diurnal ShareGPT-o1, {SLA_TWO_CLASS.describe()} [{config_name}]"
    )
    report = render_table(fleet_table(results, SLA_TWO_CLASS), title=title)
    report += "\n\n" + render_table(
        fleet_class_table(results, SLA_TWO_CLASS),
        title=f"Figure 12 — per-SLA-class breakdown [{config_name}]",
    )
    write_report(results_dir, f"fig12_heterogeneous_fleet_{config_name}", report)

    # Every run drains the full trace with nothing lost or left behind.
    for result in results.values():
        assert result.completed
        assert result.submitted_requests == NUM_REQUESTS
        assert len(result.finished_requests) == NUM_REQUESTS

    per_class = {
        name: result.per_class_goodput_per_replica_second(SLA_TWO_CLASS)
        for name, result in results.items()
    }
    for goodputs in per_class.values():
        assert set(goodputs) == {SLA_CLASS_INTERACTIVE, SLA_CLASS_BATCH}

    # Headline: capacity-normalised memory-aware routing beats capacity-blind
    # least-outstanding on per-class goodput-per-replica-second for BOTH
    # classes, with a real interactive-class margin.
    for sla_class in (SLA_CLASS_INTERACTIVE, SLA_CLASS_BATCH):
        assert per_class["memory-aware"][sla_class] >= per_class["least-outstanding"][sla_class]
    assert (
        per_class["memory-aware"][SLA_CLASS_INTERACTIVE]
        > 1.05 * per_class["least-outstanding"][SLA_CLASS_INTERACTIVE]
    )

    # The memory-aware router is the best (or tied-best) policy per class.
    for sla_class in (SLA_CLASS_INTERACTIVE, SLA_CLASS_BATCH):
        best = max(goodputs[sla_class] for goodputs in per_class.values())
        assert per_class["memory-aware"][sla_class] >= 0.99 * best

    # Mechanism check: the 4090 replica (index 2, the small pool) is where
    # capacity-blind routing loses.  Least-outstanding equalises counts and
    # thrashes it through evictions; the normalised router places a far
    # smaller share there and induces none.
    blind_4090 = results["least-outstanding"].replicas[2]
    aware_4090 = results["memory-aware"].replicas[2]
    assert len(aware_4090.requests) < len(blind_4090.requests)
    assert aware_4090.total_evictions == 0
    assert blind_4090.total_evictions > 0

    # Interactive requests meet their tight deadlines under normalised
    # routing even on the mixed fleet.
    attainment = results["memory-aware"].fleet_summary(SLA_TWO_CLASS).per_class
    assert attainment[SLA_CLASS_INTERACTIVE].sla_attainment >= 0.99
