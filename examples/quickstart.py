"""Quickstart: serve a synthetic workload with the Past-Future scheduler.

Builds the paper's Llama-2-7B / A100 platform, generates a ShareGPT-style
workload, serves it with 32 closed-loop clients under the Past-Future
scheduler, and prints the throughput/goodput/latency summary.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis.experiments import FleetConfig, run_experiment
from repro.hardware.platform import paper_platform
from repro.serving.sla import SLA_SMALL_MODEL
from repro.workloads.sharegpt import generate_sharegpt_workload


def main() -> None:
    platform = paper_platform("7b-a100")
    print(f"Platform: {platform.describe()}")

    workload = generate_sharegpt_workload(num_requests=200, seed=0)
    print(
        f"Workload: {workload.name}, {len(workload)} requests, "
        f"mean input {workload.mean_input_length:.0f} tokens, "
        f"mean output {workload.mean_output_length:.0f} tokens"
    )

    config = FleetConfig(
        platform=platform,
        scheduler_name="past-future",
        scheduler_kwargs={"reserved_fraction": 0.03, "seed": 0},
        num_clients=32,
    )
    result = run_experiment(config, workload)

    summary = result.throughput_summary(SLA_SMALL_MODEL)
    latency = result.latency_summary()
    print()
    print(result.describe())
    print(f"SLA: {SLA_SMALL_MODEL.describe()}")
    print(f"Throughput: {summary.throughput:8.1f} tokens/s")
    print(f"Goodput:    {summary.goodput:8.1f} tokens/s "
          f"({summary.compliance_rate:.1%} of requests SLA-compliant)")
    print(f"Mean TTFT:  {latency.mean_ttft:8.3f} s   (P99 {latency.p99_ttft:.3f} s)")
    print(f"Mean TPOT:  {latency.mean_tpot:8.3f} s   (P99 MTPOT {latency.p99_mtpot:.3f} s)")
    print(f"Evictions:  {result.total_evictions}")


if __name__ == "__main__":
    main()
