"""Guard: the fairness subsystem must not perturb untenanted experiments.

This PR threaded tenant identities, VTC scheduling, and throttling through
the engine and both simulators.  None of that may move a single float in
existing experiments: with no tenants configured and no throttle installed,
the engine snapshots below must stay *byte-identical* to the ones the same
recipes produced before the fairness code existed.

The two digests were captured on the pre-fairness tree (and re-verified on
it via ``git stash``) with :func:`repro.analysis.perf.run_snapshot` /
``cluster_snapshot`` — the same serialization oracle the perf harness hashes
into ``BENCH_core.json``.  If either assertion fires, a "fairness" change
leaked into the default pipeline (for example, the engine's relaxed
out-of-order ``_admit`` path or the conditional snapshot keys).
"""

from __future__ import annotations

import pytest

from repro.analysis.perf import (
    _hash_parts,
    cluster_snapshot,
    run_fingerprint,
)
from repro.schedulers.registry import create_scheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.server import ServingSimulator
from repro.workloads.arrivals import assign_bursty_arrivals
from repro.workloads.sharegpt import generate_sharegpt_o1_workload, generate_sharegpt_workload
from repro.workloads.spec import scale_workload
from tests.helpers import assert_conservation, assert_fingerprint_neutral

#: Engine recipe digest captured before the fairness subsystem landed.
ENGINE_BASELINE = "c7f9d9f44e7f36be3cda4839722179382036c94c77818a31312038a535c2d307"

#: Cluster recipe digest captured before the fairness subsystem landed.
CLUSTER_BASELINE = "397dd2f5385ba1c36494bfec448f63caedcefcba7244a2cd38d18be021312367"


def test_engine_snapshot_matches_pre_fairness_baseline(platform_7b):
    workload = scale_workload(generate_sharegpt_workload(40, seed=3), 0.25)
    simulator = ServingSimulator(
        platform_7b,
        create_scheduler("past-future", reserved_fraction=0.05, seed=11),
        token_capacity_override=2048,
    )
    result = simulator.run_closed_loop(workload, num_clients=8)
    assert result.rejected == []
    assert_conservation(result)
    assert_fingerprint_neutral(result, ENGINE_BASELINE, label="fairness subsystem")


def test_cluster_snapshot_matches_pre_fairness_baseline(platform_7b):
    workload = assign_bursty_arrivals(
        scale_workload(generate_sharegpt_o1_workload(60, seed=5), 1 / 16),
        base_rate=1.0,
        burst_rate=50.0,
        burst_length=20.0,
        cycle_length=30.0,
        seed=7,
    )
    simulator = ClusterSimulator(
        platform=platform_7b,
        num_replicas=2,
        router="memory-aware",
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        token_capacity_override=platform_7b.token_capacity // 128,
        chunked_prefill_tokens=512,
    )
    result = simulator.run_open_loop(workload)
    assert result.rejected == []
    assert_conservation(result)
    assert _hash_parts([repr(cluster_snapshot(result))]) == CLUSTER_BASELINE


@pytest.mark.parametrize("name", ["vtc", "weighted-vtc"])
def test_untenanted_fair_scheduler_matches_fcfs_baseline(platform_7b, name):
    """With no tenants, VTC degenerates to FIFO == the aggressive baseline."""
    workload = scale_workload(generate_sharegpt_workload(40, seed=3), 0.25)
    digests = {}
    for scheduler_name in ("aggressive", name):
        simulator = ServingSimulator(
            platform_7b,
            create_scheduler(scheduler_name, watermark=0.95),
            token_capacity_override=2048,
        )
        digests[scheduler_name] = run_fingerprint(
            simulator.run_closed_loop(workload, num_clients=8)
        )
    assert_fingerprint_neutral(
        digests[name], digests["aggressive"], label=f"untenanted {name}"
    )
