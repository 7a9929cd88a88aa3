"""Cluster serving: route bursty traffic across a fleet of replicas.

Part 1 builds a four-replica homogeneous fleet of the scaled Llama-2-7B
platform, stamps a ShareGPT-o1 workload with bursty (on/off Poisson) arrival
times, and replays the identical trace through each routing policy:
round-robin, least-outstanding, least-KV-load, and the memory-aware router
that reuses the paper's future-memory prediction as a placement signal.

Part 2 goes heterogeneous: two A100 replicas plus one RTX-4090 replica (a
~6.6x smaller KV pool at half the decode bandwidth) serve a diurnal trace
carrying two SLA classes — tight-deadline ``interactive`` and loose-deadline
``batch`` requests.  Routers only place — each returns the id of one
routable replica — and the memory-aware router compares replicas on
capacity-normalised, speed-weighted headroom, so the small card only
receives what fits it.

Run with:  python examples/cluster_serving.py
"""

from __future__ import annotations

from repro.analysis.experiments import FleetConfig, sweep
from repro.analysis.tables import fleet_class_table, fleet_table, render_table
from repro.hardware.platform import paper_platform, paper_platforms
from repro.serving.routing import available_routers
from repro.serving.sla import SLASpec, two_class_sla
from repro.workloads.arrivals import assign_bursty_arrivals, assign_diurnal_arrivals
from repro.workloads.sharegpt import generate_sharegpt_o1_workload
from repro.workloads.spec import assign_sla_classes, scale_workload

SCALE = 1.0 / 16.0
NUM_REPLICAS = 4


def homogeneous_fleet() -> None:
    platform = paper_platform("7b-a100")
    replica_capacity = int(platform.token_capacity * SCALE) // 8
    print(f"Platform: {platform.describe()}")
    print(f"Fleet: {NUM_REPLICAS} replicas, {replica_capacity:,} KV token slots each (scaled)")

    workload = scale_workload(generate_sharegpt_o1_workload(400, seed=71), SCALE)
    workload = assign_bursty_arrivals(
        workload, base_rate=1.0, burst_rate=100.0, burst_length=80, cycle_length=100, seed=9
    )
    print(f"Workload: {workload.name}, {len(workload)} requests — {workload.description}")
    print()

    config = FleetConfig(
        platform=platform,
        num_replicas=NUM_REPLICAS,
        router="round-robin",
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        token_capacity_override=replica_capacity,
        chunked_prefill_tokens=int(8192 * SCALE),
    )
    sla = SLASpec(ttft_limit=2.5, mtpot_limit=0.5)
    results = sweep(config, workload, {name: {"router": name} for name in available_routers()})

    print(render_table(fleet_table(results, sla), title=f"Fleet results under {sla.describe()}"))
    print()
    for name, result in results.items():
        evictions = [replica.total_evictions for replica in result.replicas]
        print(f"{name:>18}: {result.describe()}  per-replica evictions {evictions}")

    best = max(results, key=lambda name: results[name].goodput(sla))
    baseline = results["round-robin"].goodput(sla)
    print()
    print(
        f"Best router: {best} "
        f"(+{results[best].goodput(sla) / max(baseline, 1e-9) - 1:.1%} goodput vs round-robin)"
    )


def heterogeneous_fleet() -> None:
    platforms = paper_platforms("7b-a100", "7b-a100", "7b-4090")
    capacity_scale = 1.0 / 32.0
    print("Mixed fleet (capacities scaled per replica, ratios preserved):")
    for platform in platforms:
        print(f"  {platform.describe()} -> {int(platform.token_capacity * capacity_scale):,} scaled slots")

    workload = scale_workload(
        generate_sharegpt_o1_workload(400, seed=71, max_new_tokens=4096), SCALE
    )
    workload = assign_sla_classes(workload, {"interactive": 0.7, "batch": 0.3}, seed=5)
    workload = assign_diurnal_arrivals(
        workload, base_rate=1.0, burst_rate=60.0, period=60.0, amplitude=0.6,
        burst_length=60, cycle_length=100, seed=9,
    )
    print(f"Workload: {workload.name}, {len(workload)} requests — {workload.description}")
    print()

    config = FleetConfig(
        platforms=platforms,
        num_replicas=len(platforms),
        router="least-outstanding",
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        capacity_scale=capacity_scale,
        chunked_prefill_tokens=int(8192 * SCALE),
    )
    # Per-class deadlines: interactive signs the tight contract, batch a
    # loose one; compliance (and therefore goodput) is judged per class.
    sla = two_class_sla(interactive=(2.5, 0.5), batch=(10.0, 1.5))
    routers = ["least-outstanding", "memory-aware"]
    results = sweep(config, workload, {name: {"router": name} for name in routers})

    print(render_table(
        fleet_class_table(results, sla),
        title=f"Per-class fleet results under {sla.describe()}",
    ))
    print()
    for name, result in results.items():
        requests_per_replica = [len(replica.requests) for replica in result.replicas]
        evictions = [replica.total_evictions for replica in result.replicas]
        print(
            f"{name:>18}: requests per replica {requests_per_replica} "
            f"(last = RTX-4090), evictions {evictions}"
        )
    print()
    blind = results["least-outstanding"].per_class_goodput_per_replica_second(sla)
    aware = results["memory-aware"].per_class_goodput_per_replica_second(sla)
    for sla_class in sorted(aware):
        print(
            f"{sla_class:>12}: memory-aware {aware[sla_class]:.1f} vs "
            f"least-outstanding {blind[sla_class]:.1f} goodput/replica-s "
            f"(+{aware[sla_class] / max(blind[sla_class], 1e-9) - 1:.1%})"
        )


def main() -> None:
    print("=" * 72)
    print("Part 1 — homogeneous fleet, bursty arrivals")
    print("=" * 72)
    homogeneous_fleet()
    print()
    print("=" * 72)
    print("Part 2 — heterogeneous fleet (2x A100 + 1x RTX-4090), SLA classes")
    print("=" * 72)
    heterogeneous_fleet()


if __name__ == "__main__":
    main()
