"""Perf-smoke: regenerate ``BENCH_core.json`` and guard the perf trajectory.

Times the eight core scenarios (single-engine fig07 sweep, the
saturated-phase fig07 variant, fig10 cluster routing, fig11 autoscaling, the
fig12 heterogeneous fleet, the fig13 multi-tenant fairness stack, the
fig14 chaos fleet under a seeded fault plan, and the fig15 session-affinity
fleet serving multi-turn interactions with prefix reuse) under the
event-jump fast path and the reference loop,
verifies the two produce bit-identical metrics (the harness raises before any
timing is reported otherwise), rewrites ``BENCH_core.json`` at the repo root,
and fails when a scenario's measured speedup regresses more than 2x against
the committed baseline.  The fingerprints themselves are also compared
against the committed file: simulations are deterministic and
machine-independent, so any fingerprint drift means results changed — in
particular, the seven fault-free scenarios pin the guarantee that the fault
subsystem is invisible when no :class:`~repro.serving.faults.FaultPlan` is
attached, and the seven session-free ones pin that the session/prefix
machinery is invisible unless a run actually serves interactions.

Speedup (a ratio of two runs on the same machine) is compared rather than
absolute seconds, so the check is robust to slow CI hosts.  Both loops share
``InferenceEngine.step()``, so a change that speeds up ``step()`` lowers the
ratio and must re-record the committed timings.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.perf import (
    BENCH_PATH,
    SCENARIOS,
    measure_scenario,
    run_benchmarks,
    write_report,
)

#: Minimum acceptable speedup of the fast path over the in-repo reference
#: loop, per scenario.  The committed BENCH_core.json numbers run well above
#: these; the floors only catch the fast path breaking outright.
SPEEDUP_FLOORS = {
    "fig07_goodput_vs_clients": 2.0,
    # The saturated scenario is the one the saturated-phase event jump exists
    # for: ~90% of iterations consult the admission scheduler, and the fused
    # no-admit path must beat the reference loop by a clear margin (the
    # committed number runs well above this floor; the pre-PR loop — fast
    # path without saturated jumps — is the seed_loop_seconds entry, which
    # the fast path beats by >= 2x on the committed baseline machine).
    "fig07_saturated": 2.0,
    "fig10_cluster_routing": 3.0,
    "fig11_autoscaling": 3.0,
    "fig12_heterogeneous": 3.0,
    # Mostly the saturated-VTC engine run; the fair scheduler's horizon hook
    # is what keeps this scenario fast, so the floor guards it directly.
    "fig13_fairness": 2.0,
    # FAULT events bound the jump horizon, so the chaos scenario proves the
    # fast path still fuses aggressively between fault edges.
    "fig14_failure_recovery": 2.0,
    # A follow-up turn arrives one think time (20 s here) after the finish
    # that spawns it, so each replica jumps up to the other replicas' clocks
    # plus that delay instead of stopping at their clocks.  The session fleet
    # now fuses about 98% of its iterations; a floor of 6x catches a return
    # to clipping at the other clocks, which ran at about 3.4x.
    "fig15_session_affinity": 6.0,
}

#: A scenario may not regress more than this factor against the committed
#: speedup before the job fails.
MAX_REGRESSION = 2.0


@pytest.fixture(scope="module")
def committed_baseline() -> dict:
    if not BENCH_PATH.exists():
        return {}
    return json.loads(BENCH_PATH.read_text()).get("scenarios", {})


@pytest.fixture(scope="module")
def fresh_report(committed_baseline, tmp_path_factory) -> dict:
    # One measurement pass for the whole module; the equivalence check runs
    # inside measure_scenario via run_benchmarks.  The tracked baseline is
    # only overwritten on CI (whose artifact is the trajectory) or when a
    # contributor opts in with PERF_UPDATE_BASELINE=1 — a casual local
    # `pytest benchmarks` must not dirty BENCH_core.json with this machine's
    # timings (a slower laptop would silently lower the regression bar).
    report = run_benchmarks()
    if os.environ.get("CI") or os.environ.get("PERF_UPDATE_BASELINE"):
        path = write_report(report)
    else:
        path = write_report(report, tmp_path_factory.mktemp("perf") / "BENCH_core.json")
    print(f"\n[perf report written to {path}]")
    return report


@pytest.mark.benchmark(group="perf-core")
@pytest.mark.parametrize("scenario_name", [s.name for s in SCENARIOS])
def test_perf_core_scenario(benchmark, fresh_report, committed_baseline, scenario_name):
    entry = fresh_report["scenarios"][scenario_name]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(entry)
    print(
        f"\n{scenario_name}: fast {entry['fast_seconds']}s vs reference "
        f"{entry['reference_seconds']}s -> {entry['speedup']}x"
    )

    # The fast path must stay a real optimisation...
    assert entry["speedup"] >= SPEEDUP_FLOORS[scenario_name]

    # ...and must not regress badly against the committed trajectory.
    committed = committed_baseline.get(scenario_name)
    if committed:
        assert entry["speedup"] * MAX_REGRESSION >= committed["speedup"], (
            f"{scenario_name}: measured speedup {entry['speedup']}x regressed more than "
            f"{MAX_REGRESSION}x against the committed {committed['speedup']}x"
        )


@pytest.mark.parametrize("scenario_name", [s.name for s in SCENARIOS])
def test_jump_fusion_matches_baseline(fresh_report, committed_baseline, scenario_name):
    """The engine's self-profiled ``jump`` block must equal the committed one.

    Wall-clock hides small fast-path regressions on noisy hosts; the
    ``jump`` block does not.  The simulations are deterministic, so every
    counter in it is machine-independent: any difference means the fast
    path's fusion behaviour changed, not that the host was slow.
    """
    entry = fresh_report["scenarios"][scenario_name]
    jump = entry["jump"]
    assert jump["loop_steps"] + jump["steps_fused"] > 0
    committed = committed_baseline.get(scenario_name, {}).get("jump")
    if committed:
        assert jump == committed, f"{scenario_name}: jump block differs from the committed one"


@pytest.mark.parametrize("scenario_name", [s.name for s in SCENARIOS])
def test_fingerprint_matches_committed_baseline(fresh_report, committed_baseline, scenario_name):
    """Result fingerprints must be byte-identical to the committed baseline.

    Fingerprints hash simulation *results*, not timings, and the simulations
    are seeded and deterministic — so they are machine-independent.  For the
    seven fault-free scenarios this is the regression gate proving that code
    which only runs under a ``FaultPlan`` (fault events, health filtering,
    retry bookkeeping) is byte-invisible when none is attached; for
    fig14 it pins the seeded chaos schedule itself, and for fig15 the
    seeded conversation schedule plus the prefix-cache accounting.
    """
    committed = committed_baseline.get(scenario_name)
    if not committed:
        pytest.skip(f"{scenario_name} not in committed BENCH_core.json yet")
    fresh = fresh_report["scenarios"][scenario_name]["fingerprint"]
    assert fresh == committed["fingerprint"], (
        f"{scenario_name}: fingerprint {fresh[:16]}... diverged from committed "
        f"{committed['fingerprint'][:16]}... — simulation results changed"
    )


def test_measure_scenario_rejects_divergence(monkeypatch):
    """The harness refuses to report timings for non-identical results."""
    from repro.analysis import perf

    class DivergingScenario(perf.Scenario):
        def run(self, fast_path, tracer=None):
            return 0.01, "fast" if fast_path else "reference", {}

    scenario = DivergingScenario(
        name="diverging", description="fast and reference disagree", calls=()
    )
    with pytest.raises(perf.FastPathDivergenceError):
        measure_scenario(scenario)
