"""Figure 14 (repo extension): fleet goodput under failures, with and without recovery.

The paper's evaluation assumes replicas never die; this benchmark opens the
robustness axis.  The fig10 fleet (four scaled Llama-2-7B replicas behind the
memory-aware router, bursty ShareGPT-o1 trace) is replayed three times:

* **no-failure** — the untouched baseline;
* **recovery** — a seeded :class:`~repro.serving.faults.FaultPlan` crashes
  two replicas mid-burst and slows a third by 3x for 25 s, with the full
  recovery stack on: crashed work re-dispatches through the retry policy,
  and dead capacity is replaced (10 s boot);
* **no-recovery** — the *same* fault schedule with the recovery stack off
  (no retries, no replacements): crashed work is rejected with a typed
  reason and the fleet stays short two replicas.

Headline checks: recovery preserves at least 0.8x the no-failure goodput and
finishes every request, while the no-recovery run both loses requests
outright and lands strictly below the recovered goodput.  The same seeded
plan also yields bit-identical results across two runs — chaos here is a
reproducible experiment, not noise.
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
from repro.analysis.experiments import FleetConfig, run_experiment
from repro.analysis.perf import cluster_fingerprint
from repro.analysis.tables import render_table
from repro.metrics.availability import summarize_availability
from repro.serving.faults import (
    REASON_REPLICA_CRASH,
    FaultPlan,
    ReplicaCrash,
    RetryPolicy,
    Straggler,
)
from repro.serving.sla import SLASpec
from repro.workloads.arrivals import assign_bursty_arrivals
from repro.workloads.sharegpt import generate_sharegpt_o1_workload

NUM_REPLICAS = 4
NUM_REQUESTS = 400

#: Relaxed relative to fig10's 2.5 s TTFT: a crashed request's clock keeps
#: running from its *original* arrival while it waits out the retry backoff
#: and re-prefills, so the SLA must leave room for one recovery round trip
#: (though not for unbounded retry storms).
SLA_RECOVERY = SLASpec(ttft_limit=10.0, mtpot_limit=1.0)

#: Floor on recovered goodput relative to the no-failure baseline.
RECOVERY_GOODPUT_FLOOR = 0.8


def fig14_workload():
    """The fig10 bursty trace (same seeds), reused as the chaos substrate."""
    return assign_bursty_arrivals(
        scaled(generate_sharegpt_o1_workload(NUM_REQUESTS, seed=71)),
        base_rate=1.0,
        burst_rate=100.0,
        burst_length=80,
        cycle_length=100,
        seed=9,
    )


def fault_plan(recover: bool) -> FaultPlan:
    """Two crashes + one straggler; ``recover`` toggles the recovery stack."""
    return FaultPlan(
        crashes=[ReplicaCrash(time=20.0, replica=1), ReplicaCrash(time=55.0, replica=2)],
        stragglers=[Straggler(start=35.0, duration=25.0, replica=0, slowdown=3.0)],
        seed=23,
        retry_policy=RetryPolicy(base_delay=0.1, max_attempts=5, seed=23) if recover else None,
        replace_crashed=recover,
        replacement_warmup=10.0,
    )


def run_fleet(platform, faults: FaultPlan | None):
    config = FleetConfig(
        platform=platform,
        num_replicas=NUM_REPLICAS,
        router="memory-aware",
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        token_capacity_override=CAPACITY_7B_A100 // 8,
        chunked_prefill_tokens=PREFILL_CAP_SCALED,
        faults=faults,
    )
    return run_experiment(config, fig14_workload())


@pytest.mark.benchmark(group="fig14")
def test_fig14_failure_recovery(benchmark, platform_7b, results_dir):
    def run_all():
        return (
            run_fleet(platform_7b, None),
            run_fleet(platform_7b, fault_plan(recover=True)),
            run_fleet(platform_7b, fault_plan(recover=False)),
        )

    baseline, recovered, unrecovered = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        {
            "mode": name,
            "goodput tok/s": f"{r.goodput(SLA_RECOVERY):.1f}",
            "finished": len(r.finished_requests),
            "failed": len(r.failed),
            "retries": r.retries,
            "rejected": len(r.rejected),
        }
        for name, r in (
            ("no-failure", baseline),
            ("recovery", recovered),
            ("no-recovery", unrecovered),
        )
    ]
    report = render_table(
        rows,
        title=(
            f"Figure 14 — goodput under 2 crashes + 1 straggler, {NUM_REPLICAS}x "
            f"Llama-2-7B (1/{int(1 / SCALE)} scale), bursty ShareGPT-o1"
        ),
    )
    write_report(results_dir, "fig14_failure_recovery", report)

    goodput_base = baseline.goodput(SLA_RECOVERY)
    goodput_rec = recovered.goodput(SLA_RECOVERY)
    goodput_norec = unrecovered.goodput(SLA_RECOVERY)

    # Headline: the recovery stack holds goodput within the floor of the
    # no-failure run and loses no requests — every crashed request finishes
    # on a surviving (or replacement) replica.
    assert goodput_rec >= RECOVERY_GOODPUT_FLOOR * goodput_base
    assert len(recovered.finished_requests) == NUM_REQUESTS
    assert recovered.retries > 0
    assert not recovered.rejected

    # Without recovery the same schedule both drops the crashed requests
    # (typed, not vanished) and lands strictly below the recovered goodput.
    assert goodput_norec < goodput_rec
    assert len(unrecovered.finished_requests) < NUM_REQUESTS
    assert unrecovered.reject_reasons.get(REASON_REPLICA_CRASH, 0) == len(unrecovered.rejected)
    assert len(unrecovered.rejected) == len(unrecovered.failed)

    # Conservation under chaos: routed + rejected == submitted in every mode.
    for result in (baseline, recovered, unrecovered):
        assert result.routed_requests + len(result.rejected) == NUM_REQUESTS

    # The failure summary agrees with the schedule: two crashes, one
    # straggler, and a measurable boot gap for each replacement.
    summary = summarize_availability(recovered, SLA_RECOVERY)
    assert summary.crashes == 2
    assert summary.stragglers == 1
    assert summary.delivery_rate == 1.0
    assert summary.mean_time_to_recovery >= 10.0


@pytest.mark.benchmark(group="fig14")
def test_fig14_chaos_is_deterministic(benchmark, platform_7b):
    """The same seeded plan yields bit-identical results across runs."""

    def run_twice():
        return (
            run_fleet(platform_7b, fault_plan(recover=True)),
            run_fleet(platform_7b, fault_plan(recover=True)),
        )

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert cluster_fingerprint(first) == cluster_fingerprint(second)
