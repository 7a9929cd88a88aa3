"""Autoscaling walkthrough: an elastic fleet chasing bursty traffic.

Serves the same bursty ShareGPT-o1 trace under three autoscaling policies —
a peak-provisioned static fleet, reactive threshold scaling on the windowed
saturation rate, and the predictive policy that forecasts fleet KV demand
with the paper's future-memory equations — then compares them on goodput
per replica-second and prints the predictive run's fleet-size timeline and
scaling decisions.

Written against the decision-based placement API: replica capacities come
from the per-replica ``capacity_scale`` knob (which preserves capacity
*ratios*, so the same config works on heterogeneous fleets — pass
``platforms=[...]`` to mix GPU generations and the predictive policy sizes
the fleet in capacity units), and routing flows through
``Router.decide -> RoutingDecision``.

Run with:  python examples/autoscaling.py
"""

from __future__ import annotations

from repro.analysis.experiments import FleetConfig, sweep
from repro.analysis.tables import autoscale_table, render_table
from repro.hardware.platform import paper_platform
from repro.serving.autoscale import available_autoscale_policies
from repro.serving.sla import SLASpec
from repro.workloads.arrivals import assign_bursty_arrivals
from repro.workloads.sharegpt import generate_sharegpt_o1_workload
from repro.workloads.spec import scale_workload

SCALE = 1.0 / 16.0
MAX_REPLICAS = 6


#: Per-replica capacity multiplier: 1/16 workload scale and 1/8 of the pool
#: per replica, preserving each replica's own capacity ratio (the form that
#: stays correct when the fleet mixes GPU generations).
CAPACITY_SCALE = SCALE / 8


def main() -> None:
    platform = paper_platform("7b-a100")
    replica_capacity = int(platform.token_capacity * CAPACITY_SCALE)
    print(f"Platform: {platform.describe()}")
    print(f"Replica KV capacity: {replica_capacity:,} token slots (scaled)")

    workload = scale_workload(generate_sharegpt_o1_workload(400, seed=71), SCALE)
    workload = assign_bursty_arrivals(
        workload, base_rate=0.5, burst_rate=10.0, burst_length=80, cycle_length=100, seed=9
    )
    print(f"Workload: {workload.name}, {len(workload)} requests — {workload.description}")
    print()

    config = FleetConfig(
        platform=platform,
        router="least-outstanding",
        num_replicas=2,
        min_replicas=1,
        max_replicas=MAX_REPLICAS,
        decision_interval=0.5,
        warmup_delay=3.0,
        sample_window=4.0,
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        capacity_scale=CAPACITY_SCALE,
        chunked_prefill_tokens=int(8192 * SCALE),
    )
    policy_kwargs = {
        "reactive": {
            "scale_up_threshold": 0.25,
            "scale_down_threshold": 0.02,
            "cooldown": 2.0,
        },
        "predictive": {
            "target_utilization": 0.8,
            "scale_down_cooldown": 6.0,
            "default_length": int(2048 * SCALE),
        },
    }
    sla = SLASpec(ttft_limit=2.5, mtpot_limit=0.5)
    variants = {
        name: {"autoscale": name, "autoscale_kwargs": policy_kwargs.get(name, {})}
        for name in available_autoscale_policies()
    }
    results = sweep(config, workload, variants)

    print(render_table(autoscale_table(results, sla), title=f"Fleet efficiency under {sla.describe()}"))
    print()
    for name, result in results.items():
        print(f"{name:>10}: {result.describe()}")

    predictive = results["predictive"]
    print()
    print("Predictive fleet-size timeline (active/warming/draining at each change):")
    for sample in predictive.fleet_timeline:
        bar = "#" * sample.active + "~" * sample.warming + "-" * sample.draining
        print(f"  t={sample.time:7.2f}s  {bar:<{MAX_REPLICAS + 2}}  "
              f"active={sample.active} warming={sample.warming} draining={sample.draining}")

    best = max(results, key=lambda name: results[name].goodput_per_replica_second(sla))
    static = results["static"].goodput_per_replica_second(sla)
    print()
    print(
        f"Best policy: {best} "
        f"(+{results[best].goodput_per_replica_second(sla) / max(static, 1e-9) - 1:.0%} "
        f"goodput-per-replica-second vs the peak-provisioned static fleet)"
    )


if __name__ == "__main__":
    main()
