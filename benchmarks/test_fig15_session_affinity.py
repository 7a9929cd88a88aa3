"""Figure 15 (repo extension): session-affinity routing with KV prefix reuse.

The paper's workloads are single-shot; production agentic traffic is
multi-turn, and each turn's prompt is the whole accumulated conversation.
That makes *placement* a first-order lever: a turn landing on the replica
that served its predecessor can reuse the resident KV prefix instead of
re-prefilling the conversation from scratch.  This benchmark measures that
lever on a four-replica scaled fleet serving 48 heavy-tail agentic sessions
(4-12 turns) closed-loop — every follow-up turn spawned by its
predecessor's completion:

* **affinity** — the session-affinity router pins each session to the
  replica holding its prefix, falling back to memory-aware scoring when the
  home replica is unavailable;
* **blind** — the least-outstanding router scatters turns across the fleet
  at equal fleet size, so most turns miss the (equally sized) prefix cache;
* **home-crash** — the affinity fleet with a seeded crash of replica 0
  mid-run: sessions homed there lose their prefixes and in-flight turns,
  and must re-home through retries onto the survivors.

Headline checks: affinity delivers at least 1.15x the blind goodput at
equal fleet size (measured ~1.4x) with a far higher prefix hit rate, and
degrades gracefully under the home crash — every session still runs to its
final stage via the retry path, holding most of the fault-free goodput.
The same seeded crash schedule yields bit-identical results across runs.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    CAPACITY_7B_A100,
    PREFILL_CAP_SCALED,
    SCALE,
    write_report,
)
from repro.analysis.experiments import FleetConfig, run_experiment
from repro.analysis.perf import cluster_fingerprint
from repro.analysis.tables import render_table
from repro.serving.faults import FaultPlan, ReplicaCrash, RetryPolicy
from repro.serving.sla import SLASpec
from repro.workloads.interactions import generate_interactions

NUM_REPLICAS = 4
NUM_SESSIONS = 48

#: Per-replica pool and prefix-cache budget.  The cache must be large enough
#: to keep one prefix per concurrently thinking session resident, or LRU
#: thrash erases the affinity advantage it exists to measure.
POOL_TOKENS = CAPACITY_7B_A100 // 2
PREFIX_TOKENS = int(POOL_TOKENS * 0.9)

SLA = SLASpec(ttft_limit=2.5, mtpot_limit=0.5)

#: Headline floor: affinity goodput over affinity-blind at equal fleet size.
AFFINITY_GOODPUT_FLOOR = 1.15

#: Floor on home-crash goodput relative to the fault-free affinity run.
CRASH_GOODPUT_FLOOR = 0.7


def fig15_interactions():
    """48 seeded heavy-tail sessions, prefill-dominated (tiny outputs)."""
    return generate_interactions(
        NUM_SESSIONS,
        seed=71,
        mean_prompt_tokens=48.0,
        mean_output_tokens=6.0,
        min_turns=4,
        max_turns=12,
        think_time=0.0,
        start_spacing=0.0,
    )


def crash_plan() -> FaultPlan:
    """Replica 0 — home to a quarter of the fleet's sessions — dies mid-run."""
    return FaultPlan(
        crashes=[ReplicaCrash(time=0.5, replica=0)],
        seed=23,
        retry_policy=RetryPolicy(base_delay=0.05, max_attempts=5, seed=23),
        replace_crashed=True,
        replacement_warmup=0.3,
    )


def run_fleet(platform, router: str, faults: FaultPlan | None = None):
    config = FleetConfig(
        platform=platform,
        num_replicas=NUM_REPLICAS,
        router=router,
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        token_capacity_override=POOL_TOKENS,
        chunked_prefill_tokens=PREFILL_CAP_SCALED,
        prefix_cache_tokens=PREFIX_TOKENS,
        faults=faults,
    )
    return run_experiment(config, fig15_interactions())


@pytest.mark.benchmark(group="fig15")
def test_fig15_session_affinity(benchmark, platform_7b, results_dir):
    def run_all():
        return (
            run_fleet(platform_7b, "session-affinity"),
            run_fleet(platform_7b, "least-outstanding"),
            run_fleet(platform_7b, "session-affinity", crash_plan()),
        )

    affinity, blind, crashed = benchmark.pedantic(run_all, rounds=1, iterations=1)

    summaries = {
        name: result.session_summary(sla=SLA)
        for name, result in (
            ("affinity", affinity),
            ("blind", blind),
            ("home-crash", crashed),
        )
    }
    rows = [
        {
            "mode": name,
            "goodput tok/s": f"{result.goodput(SLA):.1f}",
            "prefix hit rate": f"{summaries[name].prefix_hit_rate:.2f}",
            "completed sessions": summaries[name].completed_sessions,
            "abandoned": summaries[name].abandoned_sessions,
            "retries": result.retries,
        }
        for name, result in (
            ("affinity", affinity),
            ("blind", blind),
            ("home-crash", crashed),
        )
    ]
    report = render_table(
        rows,
        title=(
            f"Figure 15 — session affinity vs blind routing, {NUM_REPLICAS}x "
            f"Llama-2-7B (1/{int(1 / SCALE)} scale), {NUM_SESSIONS} multi-turn sessions"
        ),
    )
    write_report(results_dir, "fig15_session_affinity", report)

    goodput_affinity = affinity.goodput(SLA)
    goodput_blind = blind.goodput(SLA)
    goodput_crash = crashed.goodput(SLA)

    # Headline: keeping a session on the replica that holds its prefix buys
    # a clear goodput margin at equal fleet size, through the hit rate.
    assert goodput_affinity >= AFFINITY_GOODPUT_FLOOR * goodput_blind
    assert summaries["affinity"].prefix_hit_rate > 2 * summaries["blind"].prefix_hit_rate
    assert summaries["affinity"].prefix_hit_rate >= 0.5

    # Both fault-free runs serve every session to its final stage.
    for name in ("affinity", "blind"):
        assert summaries[name].num_sessions == NUM_SESSIONS
        assert summaries[name].completed_sessions == NUM_SESSIONS
        assert summaries[name].abandoned_sessions == 0

    # Graceful degradation: the crash forces re-homing (retries fire), yet
    # every session still runs to completion on the survivors and goodput
    # holds most of the fault-free level.
    assert crashed.retries > 0
    assert summaries["home-crash"].completed_sessions == NUM_SESSIONS
    assert summaries["home-crash"].abandoned_sessions == 0
    assert goodput_crash >= CRASH_GOODPUT_FLOOR * goodput_affinity

    # Conservation: every spawned turn is accounted — routed or rejected.
    for result in (affinity, blind, crashed):
        submitted = len(result.requests) + len(result.rejected)
        assert result.routed_requests + len(result.rejected) == submitted


@pytest.mark.benchmark(group="fig15")
def test_fig15_crash_is_deterministic(benchmark, platform_7b):
    """The same seeded crash schedule yields bit-identical session runs."""

    def run_twice():
        return (
            run_fleet(platform_7b, "session-affinity", crash_plan()),
            run_fleet(platform_7b, "session-affinity", crash_plan()),
        )

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert cluster_fingerprint(first) == cluster_fingerprint(second)
