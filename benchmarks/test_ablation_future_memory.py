"""Ablation: future-memory peak (Eq. 2-4) vs naive final-footprint sum.

The "Future" half of the scheduler estimates the *peak* memory of the running
batch by accounting for when each request will release its memory.  A simpler
design would admit requests while the *sum of predicted final footprints*
fits the capacity — ignoring that requests finish at different times.  This
ablation shows that the naive sum behaves like a (prediction-aware)
conservative scheduler: it is just as eviction-safe but wastes memory and
takes more decoding steps, which is precisely the gap Eq. 2-4 closes.
"""

from __future__ import annotations

from typing import Callable

import pytest

from benchmarks.conftest import CAPACITY_7B_A100, PREFILL_CAP_SCALED, scaled, write_report
from repro.analysis.experiments import memory_report_from_run
from repro.analysis.tables import render_table
from repro.core.past_future import PastFutureScheduler
from repro.engine.request import Request
from repro.schedulers.base import SchedulingContext
from repro.serving.results import RunResult
from repro.serving.server import ServingSimulator
from repro.workloads.distributions import distribution_workload

NUM_REQUESTS = 120
NUM_CLIENTS = 48


class NaiveSumScheduler(PastFutureScheduler):
    """Past-Future predictions, but admission by summed final footprints.

    It inherits the past-future saturated-phase proof, which is sound here:
    a no-admit consult draws exactly what the past-future one draws, and with
    the same draws the summed final footprints are at least the Eq. 2-4 peak,
    so every iteration the proof finds past-future rejecting the head, this
    rule rejects it too.
    """

    name = "naive-sum"

    def _fit_test(self, context: SchedulingContext) -> Callable[[Request], bool]:
        predictor = self._make_predictor()
        budget = self.admission_budget(context)
        current, remaining = self._predicted_entries(predictor, context.running)
        committed = sum(current) + sum(remaining)

        def fits(candidate: Request) -> bool:
            nonlocal committed
            footprint = sum(self._candidate_entry(predictor, candidate))
            if committed + footprint > budget:
                return False
            committed += footprint
            return True

        return fits

    def describe(self) -> str:
        return f"naive footprint sum (reserved={self.reserved_fraction:.0%})"


def run_ablation(platform, scheduler, fast_path: bool = True) -> RunResult:
    """One closed-loop run of the ablation's workload under ``scheduler``."""
    # The scheduler is not registered, so the run is built around the
    # instance rather than from a FleetConfig.
    simulator = ServingSimulator(
        platform,
        scheduler,
        token_capacity_override=CAPACITY_7B_A100,
        chunked_prefill_tokens=PREFILL_CAP_SCALED,
        fast_path=fast_path,
    )
    workload = scaled(distribution_workload("Distribution-1", NUM_REQUESTS, seed=301))
    result = simulator.run_closed_loop(workload, num_clients=NUM_CLIENTS)
    assert result.completed
    return result


def run_pair(platform) -> list[dict]:
    rows = []
    for label, scheduler in (
        ("Past-Future peak (Eq. 2-4)", PastFutureScheduler(reserved_fraction=0.03, seed=31, num_samples=4)),
        ("Naive footprint sum", NaiveSumScheduler(reserved_fraction=0.03, seed=31, num_samples=4)),
    ):
        report = memory_report_from_run(run_ablation(platform, scheduler))
        rows.append(
            {
                "admission_rule": label,
                "decoding_steps": report.decoding_steps,
                "consumed_memory": f"{report.consumed_memory_fraction:.1%}",
                "evicted_requests": f"{report.evicted_request_fraction:.1%}",
            }
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_future_memory(benchmark, platform_7b, results_dir):
    rows = benchmark.pedantic(run_pair, args=(platform_7b,), rounds=1, iterations=1)
    write_report(
        results_dir,
        "ablation_future_memory",
        render_table(rows, title="Ablation — future-memory peak (Eq. 2-4) vs naive final-footprint sum"),
    )
    peak_rule, naive_rule = rows
    # The naive sum under-utilises memory and needs more decoding steps.
    assert float(naive_rule["consumed_memory"].rstrip("%")) < float(peak_rule["consumed_memory"].rstrip("%"))
    assert naive_rule["decoding_steps"] > peak_rule["decoding_steps"]
