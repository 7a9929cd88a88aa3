"""Integration tests asserting the paper's qualitative claims on scaled-down runs.

These tests run the full serving simulation (clients -> scheduler -> engine ->
metrics) with small token capacities and scaled workloads, and check that the
*relationships* the paper reports hold:

* conservative scheduling: no evictions but low memory utilisation and the
  most decoding steps;
* aggressive scheduling: high utilisation but many evictions under
  decode-heavy load;
* Past-Future scheduling: utilisation close to the aggressive scheduler with
  far fewer evictions, and goodput at least as good as both baselines under
  heavy load.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import FleetConfig, memory_report_from_run, run_experiment
from repro.serving.sla import SLASpec
from repro.workloads.distributions import UniformLengthSpec, generate_uniform_workload


# Scaled-down analogue of the paper's decode-heavy Distribution-1: inputs are
# short, outputs dominate the KV footprint.
DECODE_HEAVY = UniformLengthSpec("scaled-decode-heavy", 2, 128, 64, 192)
# Scaled-down analogue of prefill-heavy Distribution-3.
PREFILL_HEAVY = UniformLengthSpec("scaled-prefill-heavy", 64, 192, 2, 128)

CAPACITY = 2048
NUM_REQUESTS = 80
NUM_CLIENTS = 24
#: SLA scaled to the small simulated platform: generous TTFT, tight MTPOT so
#: that eviction stalls are punished just as in the paper.
SLA = SLASpec(ttft_limit=20.0, mtpot_limit=0.5)


def run(scheduler_name: str, workload, seed_kwargs=None, num_clients=NUM_CLIENTS):
    config = FleetConfig(
        platform=run.platform,
        scheduler_name=scheduler_name,
        scheduler_kwargs=seed_kwargs or {},
        num_clients=num_clients,
        token_capacity_override=CAPACITY,
    )
    result = run_experiment(config, workload)
    assert result.completed, f"{scheduler_name} run did not complete"
    return result


@pytest.fixture(scope="module", autouse=True)
def _attach_platform(platform_7b_module):
    run.platform = platform_7b_module


@pytest.fixture(scope="module")
def platform_7b_module():
    from repro.hardware.platform import paper_platform

    return paper_platform("7b-a100")


@pytest.fixture(scope="module")
def decode_heavy_workload():
    return generate_uniform_workload(DECODE_HEAVY, NUM_REQUESTS, seed=21)


@pytest.fixture(scope="module")
def prefill_heavy_workload():
    return generate_uniform_workload(PREFILL_HEAVY, NUM_REQUESTS, seed=22)


@pytest.fixture(scope="module")
def decode_heavy_results(decode_heavy_workload):
    return {
        "past-future": run("past-future", decode_heavy_workload, {"reserved_fraction": 0.05, "seed": 1}),
        "aggressive": run("aggressive", decode_heavy_workload, {"watermark": 0.99}),
        "conservative": run("conservative", decode_heavy_workload),
        "oracle": run("oracle", decode_heavy_workload),
    }


class TestEvictionBehaviour:
    def test_conservative_never_evicts(self, decode_heavy_results):
        assert decode_heavy_results["conservative"].total_evictions == 0

    def test_oracle_never_evicts(self, decode_heavy_results):
        assert decode_heavy_results["oracle"].total_evictions == 0

    def test_aggressive_evicts_heavily_on_decode_heavy_load(self, decode_heavy_results):
        aggressive = decode_heavy_results["aggressive"]
        assert aggressive.total_evictions > 0
        assert memory_report_from_run(aggressive).evicted_request_fraction > 0.1

    def test_past_future_evicts_far_less_than_aggressive(self, decode_heavy_results):
        past_future = decode_heavy_results["past-future"].total_evictions
        aggressive = decode_heavy_results["aggressive"].total_evictions
        assert past_future < aggressive

    def test_all_requests_complete_for_every_scheduler(self, decode_heavy_results):
        for result in decode_heavy_results.values():
            assert len(result.finished_requests) == NUM_REQUESTS


class TestMemoryUtilisation:
    def test_conservative_has_lowest_utilisation(self, decode_heavy_results):
        reports = {name: memory_report_from_run(r) for name, r in decode_heavy_results.items()}
        assert reports["conservative"].consumed_memory_fraction < reports["past-future"].consumed_memory_fraction
        assert reports["conservative"].consumed_memory_fraction < reports["aggressive"].consumed_memory_fraction

    def test_past_future_utilisation_close_to_aggressive(self, decode_heavy_results):
        reports = {name: memory_report_from_run(r) for name, r in decode_heavy_results.items()}
        assert reports["past-future"].consumed_memory_fraction >= (
            0.75 * reports["aggressive"].consumed_memory_fraction
        )

    def test_conservative_takes_most_decoding_steps(self, decode_heavy_results):
        reports = {name: memory_report_from_run(r) for name, r in decode_heavy_results.items()}
        assert reports["conservative"].decoding_steps >= reports["past-future"].decoding_steps
        assert reports["conservative"].decoding_steps >= reports["oracle"].decoding_steps

    def test_future_required_memory_tracks_consumed(self, decode_heavy_results):
        for result in decode_heavy_results.values():
            report = memory_report_from_run(result)
            assert report.future_required_fraction >= report.consumed_memory_fraction


class TestGoodput:
    def test_past_future_goodput_at_least_matches_baselines_under_load(self, decode_heavy_results):
        goodputs = {name: result.goodput(SLA) for name, result in decode_heavy_results.items()}
        assert goodputs["past-future"] >= goodputs["aggressive"] * 0.95
        assert goodputs["past-future"] >= goodputs["conservative"] * 0.95

    def test_aggressive_goodput_collapses_relative_to_throughput(self, decode_heavy_results):
        aggressive = decode_heavy_results["aggressive"]
        summary = aggressive.throughput_summary(SLA)
        # Evictions break the MTPOT bound for part of the requests, so goodput
        # falls visibly below raw throughput.
        assert summary.goodput < summary.throughput

    def test_past_future_retains_most_of_its_throughput_as_goodput(self, decode_heavy_results):
        summary = decode_heavy_results["past-future"].throughput_summary(SLA)
        assert summary.goodput >= 0.8 * summary.throughput


class TestPrefillHeavyWorkload:
    def test_aggressive_is_safe_when_outputs_are_short(self, prefill_heavy_workload):
        aggressive = run("aggressive", prefill_heavy_workload, {"watermark": 0.95})
        fraction = memory_report_from_run(aggressive).evicted_request_fraction
        assert fraction < 0.2

    def test_past_future_handles_prefill_heavy_load_too(self, prefill_heavy_workload):
        past_future = run("past-future", prefill_heavy_workload, {"reserved_fraction": 0.05, "seed": 2})
        conservative = run("conservative", prefill_heavy_workload)
        assert past_future.goodput(SLA) >= conservative.goodput(SLA)


class TestReservedFractionAblation:
    def test_larger_reserve_means_fewer_evictions(self, decode_heavy_workload):
        small_reserve = run("past-future", decode_heavy_workload, {"reserved_fraction": 0.03, "seed": 3})
        large_reserve = run("past-future", decode_heavy_workload, {"reserved_fraction": 0.20, "seed": 3})
        assert large_reserve.total_evictions <= small_reserve.total_evictions

    def test_larger_reserve_means_more_decoding_steps(self, decode_heavy_workload):
        small_reserve = run("past-future", decode_heavy_workload, {"reserved_fraction": 0.03, "seed": 4})
        large_reserve = run("past-future", decode_heavy_workload, {"reserved_fraction": 0.20, "seed": 4})
        assert (
            memory_report_from_run(large_reserve).decoding_steps
            >= memory_report_from_run(small_reserve).decoding_steps
        )
