"""Unit tests for the multi-turn session subsystem.

Covers the pieces the fig15 benchmark composes: the :class:`Interaction`
workload model and its closed-loop generator, the ``session-affinity``
router's home/fallback/re-home policy, per-session metrics folding (including
the crash-retry case where an aborted turn's retry finishes under the same
request id), and the end-to-end ``run_sessions`` entry points on both
simulators — with the fast path staying bit-identical to the reference loop
while sessions and the prefix cache are live.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.engine.request import Request
from repro.memory.prefix_cache import PrefixCacheStats
from repro.metrics.sessions import summarize_sessions
from repro.obs.tracer import RingTracer
from repro.schedulers.conservative import ConservativeScheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.routing import (
    MemoryAwareRouter,
    ReplicaView,
    SessionAffinityRouter,
    create_router,
)
from repro.serving.server import ServingSimulator
from repro.serving.sla import SLASpec
from repro.workloads.interactions import (
    Interaction,
    InteractionLoadGenerator,
    InteractionStage,
    generate_interactions,
)
from repro.workloads.spec import SLA_CLASS_INTERACTIVE
from tests.conftest import TINY_CAPACITY, UNCAPPED, make_spec
from tests.helpers import (
    assert_conservation,
    assert_fingerprint_neutral,
    assert_no_late_arrivals,
    assert_rng_stream_identity,
    deliver,
)

STAGE = InteractionStage(prompt_tokens=8, output_tokens=4)


def make_interaction(
    session_id: str = "s0",
    num_stages: int = 3,
    start_time: float = 0.0,
    think_time: float = 0.0,
) -> Interaction:
    return Interaction(
        session_id=session_id,
        stages=tuple(STAGE for _ in range(num_stages)),
        start_time=start_time,
        think_time=think_time,
    )


class TestInteractionModel:
    def test_stage_validation(self):
        with pytest.raises(ValueError):
            InteractionStage(prompt_tokens=0, output_tokens=4)
        with pytest.raises(ValueError):
            InteractionStage(prompt_tokens=8, output_tokens=0)

    def test_interaction_validation(self):
        with pytest.raises(ValueError):
            Interaction(session_id="", stages=(STAGE,))
        with pytest.raises(ValueError):
            Interaction(session_id="s0", stages=())
        with pytest.raises(ValueError):
            Interaction(session_id="s0", stages=(STAGE,), start_time=-1.0)
        with pytest.raises(ValueError):
            Interaction(session_id="s0", stages=(STAGE,), think_time=-1.0)
        for field in ("start_time", "think_time"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    Interaction(session_id="s0", stages=(STAGE,), **{field: value})

    def test_specs_accumulate_the_conversation_prefix(self):
        interaction = make_interaction(num_stages=3)
        # Each spec's prompt is the full context of every earlier stage
        # (prompt + output) plus this stage's new tokens.
        assert interaction.context_before(0) == 0
        assert interaction.context_before(2) == 2 * (8 + 4)
        specs = [interaction.spec(stage) for stage in range(3)]
        assert [s.input_length for s in specs] == [8, 20, 32]
        assert [s.request_id for s in specs] == ["s0/t0", "s0/t1", "s0/t2"]
        assert [s.session_stage for s in specs] == [0, 1, 2]
        assert all(s.session_id == "s0" and s.session_stages == 3 for s in specs)
        assert specs[-1].is_final_stage and not specs[0].is_final_stage
        # Every turn is an interactive, untenanted request capped at its output.
        assert all(s.sla_class == SLA_CLASS_INTERACTIVE and s.user_id is None for s in specs)
        assert all(s.max_new_tokens == s.output_length == 4 for s in specs)


class TestGenerateInteractions:
    def test_deterministic_in_seed(self):
        assert generate_interactions(8, seed=5) == generate_interactions(8, seed=5)
        assert generate_interactions(8, seed=5) != generate_interactions(8, seed=6)

    def test_turn_counts_respect_bounds(self):
        sessions = generate_interactions(40, seed=1, min_turns=2, max_turns=5)
        assert all(2 <= s.num_stages <= 5 for s in sessions)

    def test_turn_counts_are_heavy_tailed(self):
        # Zipf(1.8): about half the sessions have one turn, a tail runs long.
        turns = [s.num_stages for s in generate_interactions(400, seed=1, max_turns=50)]
        assert 0.45 < turns.count(1) / len(turns) < 0.65
        assert max(turns) >= 20

    def test_start_spacing_and_think_time(self):
        sessions = generate_interactions(4, seed=0, think_time=1.5, start_spacing=2.0)
        assert [s.start_time for s in sessions] == [0.0, 2.0, 4.0, 6.0]
        assert all(s.think_time == 1.5 for s in sessions)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_interactions(0)
        with pytest.raises(ValueError):
            generate_interactions(4, min_turns=3, max_turns=2)
        for field in ("think_time", "start_spacing"):
            for value in (math.nan, math.inf, -1.0):
                with pytest.raises(ValueError, match="finite"):
                    generate_interactions(2, seed=1, **{field: value})


class _FinishedTurn:
    def __init__(self, spec):
        self.spec = spec
        self.is_finished = True


class TestInteractionLoadGenerator:
    def test_rejects_empty_and_duplicate_sessions(self):
        with pytest.raises(ValueError):
            InteractionLoadGenerator([])
        with pytest.raises(ValueError):
            InteractionLoadGenerator([make_interaction("s0"), make_interaction("s0")])

    def test_min_follow_up_delay_is_the_shortest_think_time(self):
        mixed = [
            make_interaction("s0", think_time=3.0),
            make_interaction("s1", think_time=0.5),
            make_interaction("s2", think_time=20.0),
        ]
        assert InteractionLoadGenerator(mixed).min_follow_up_delay == 0.5
        mixed.append(make_interaction("s3", think_time=0.0))
        assert InteractionLoadGenerator(mixed).min_follow_up_delay == 0.0

    def test_start_schedules_only_first_turns(self):
        generator = InteractionLoadGenerator(
            [make_interaction("s0", start_time=0.0), make_interaction("s1", start_time=3.0)]
        )
        generator.start()
        assert generator.next_arrival_time() == 0.0
        first = generator.pop_arrivals(0.0)
        assert [s.request_id for s in first] == ["s0/t0"]
        assert generator.next_arrival_time() == 3.0
        assert generator.pop_arrivals(2.9) == []

    def test_completion_spawns_next_stage_after_think_time(self):
        generator = InteractionLoadGenerator([make_interaction("s0", 2, think_time=1.0)])
        generator.start()
        (spec,) = generator.pop_arrivals(0.0)
        generator.on_request_finished(4.0, _FinishedTurn(spec))
        assert generator.next_arrival_time() == 5.0
        (follow_up,) = generator.pop_arrivals(5.0)
        assert follow_up.request_id == "s0/t1"
        assert follow_up.arrival_time == 5.0

    def test_final_stage_completion_spawns_nothing(self):
        generator = InteractionLoadGenerator([make_interaction("s0", 1)])
        generator.start()
        (spec,) = generator.pop_arrivals(0.0)
        generator.on_request_finished(1.0, _FinishedTurn(spec))
        assert generator.next_arrival_time() is None

    def test_unfinished_request_spawns_no_follow_up(self):
        generator = InteractionLoadGenerator([make_interaction("s0", 3)])
        generator.start()
        (spec,) = generator.pop_arrivals(0.0)
        aborted = _FinishedTurn(spec)
        aborted.is_finished = False
        generator.on_request_finished(1.0, aborted)
        assert generator.next_arrival_time() is None

    def test_identity_free_finish_abandons_the_session(self):
        # A throttled or rejected turn ends without a request — the session
        # spawns no further turns.
        generator = InteractionLoadGenerator([make_interaction("s0", 3)])
        generator.start()
        generator.pop_arrivals(0.0)
        generator.on_request_finished(1.0)
        assert generator.next_arrival_time() is None


def view(replica_id: int, capacity: int = 100_000, used: int = 0, **kwargs) -> ReplicaView:
    return ReplicaView(
        replica_id=replica_id, token_capacity=capacity, used_tokens=used, **kwargs
    )


def busy_view(replica_id: int) -> ReplicaView:
    """A replica whose running request memory-aware placement avoids."""
    return view(
        replica_id,
        used=50_000,
        current_tokens=(50_000,),
        generated_tokens=(100,),
        remaining_cap_tokens=(UNCAPPED,),
        num_running=1,
    )


def turn_spec(stage: int = 0, session_id: str = "s0", stages: int = 4):
    return make_spec(
        request_id=f"{session_id}/t{stage}", session_id=session_id, session_stage=stage, session_stages=stages
    )


def assert_next_turn_goes_home(router: SessionAffinityRouter, stage: int, home: int) -> None:
    """Turn ``stage`` of ``s0`` lands on ``home`` though it is the only busy replica."""
    views = [busy_view(home)] + [view(replica_id) for replica_id in range(3) if replica_id != home]
    assert router.decide(turn_spec(stage), views) == home


class TestSessionAffinityRouter:
    def test_registry_exposes_the_router(self):
        assert isinstance(create_router("session-affinity"), SessionAffinityRouter)

    def test_first_turn_places_like_memory_aware_and_records_home(self):
        router = SessionAffinityRouter()
        fallback = MemoryAwareRouter()
        views = [view(0, used=50_000), view(1, used=1_000), view(2, used=60_000)]
        chosen = router.decide(turn_spec(0), views)
        assert chosen == fallback.decide(turn_spec(0), views)
        assert_next_turn_goes_home(router, 1, chosen)

    def test_follow_up_turns_stick_to_the_home_replica(self):
        router = SessionAffinityRouter()
        views = [view(0, used=1_000), view(1, used=50_000)]
        assert router.decide(turn_spec(0), views) == 0
        # The home is now the *worse* load-balancing choice — affinity wins.
        loaded = [view(0, used=90_000), view(1, used=0)]
        assert router.decide(turn_spec(1), loaded) == 0
        assert_next_turn_goes_home(router, 2, 0)

    def test_saturated_home_falls_back_and_rehomes(self):
        router = SessionAffinityRouter()
        views = [view(0), view(1, used=50_000)]
        assert router.decide(turn_spec(0), views) == 0
        saturated_home = [view(0, capacity=100, used=100), view(1)]
        assert router.decide(turn_spec(1), saturated_home) == 1
        assert_next_turn_goes_home(router, 2, 1)

    def test_unhealthy_home_falls_back_to_healthy_replicas(self):
        router = SessionAffinityRouter()
        views = [view(0), view(1, used=50_000)]
        assert router.decide(turn_spec(0), views) == 0
        degraded_home = [view(0, health="degraded"), view(1)]
        assert router.decide(turn_spec(1), degraded_home) == 1

    def test_departed_home_falls_back(self):
        router = SessionAffinityRouter()
        assert router.decide(turn_spec(0), [view(0), view(1, used=50_000)]) == 0
        # Replica 0 crashed out of the routable set entirely.
        assert router.decide(turn_spec(1), [view(1), view(2, used=50_000)]) == 1
        assert_next_turn_goes_home(router, 2, 1)

    def test_sessionless_traffic_is_routed_memory_aware_without_homes(self):
        router = SessionAffinityRouter()
        assert router.decide(make_spec(), [busy_view(0), view(1)]) == 1
        # No home was recorded: the session's first turn is placed memory-aware.
        assert router.decide(turn_spec(0), [view(0), busy_view(1)]) == 0

    def test_on_run_start_forgets_homes(self):
        router = SessionAffinityRouter()
        assert router.decide(turn_spec(0), [view(0), view(1)]) == 0
        router.on_run_start()
        # Without the forgotten home, the next turn avoids the busy replica 0.
        assert router.decide(turn_spec(1), [busy_view(0), view(1)]) == 1


def finished_turn(spec, arrival: float = 0.0, ttft: float = 0.5) -> Request:
    request = Request(spec=spec, arrival_time=arrival)
    request.admit(arrival)
    deliver(request, [arrival + ttft])
    request.finish(arrival + ttft + 0.1)
    return request


class TestSummarizeSessions:
    def test_completed_session(self):
        requests = [finished_turn(turn_spec(stage, stages=2)) for stage in range(2)]
        summary = summarize_sessions(requests)
        assert summary.num_sessions == 1
        assert summary.completed_sessions == 1
        assert summary.abandoned_sessions == 0
        assert summary.total_turns == 2
        assert summary.sessions[0].ttft_by_stage == {0: 0.5, 1: 0.5}

    def test_missing_final_stage_marks_abandonment(self):
        summary = summarize_sessions([finished_turn(turn_spec(0, stages=3))])
        assert summary.abandoned_sessions == 1
        assert summary.sessions[0].turns_completed == 1

    def test_rejected_turn_dooms_the_session(self):
        served = [finished_turn(turn_spec(0, stages=3))]
        rejected = [Request(spec=turn_spec(1, stages=3), arrival_time=1.0)]
        summary = summarize_sessions(served, rejected=rejected)
        assert summary.abandoned_sessions == 1

    def test_crash_retry_finishing_under_same_id_does_not_doom(self):
        # The fault subsystem keeps the aborted original in ``failed`` even
        # when its retry (same request id) later finished — the session must
        # still count as completed.
        spec = turn_spec(0, stages=1)
        aborted = Request(spec=spec, arrival_time=0.0)
        aborted.admit(0.0)
        aborted.abort(0.3)
        summary = summarize_sessions([finished_turn(spec)], failed=[aborted])
        assert summary.abandoned_sessions == 0
        assert summary.completed_sessions == 1

    def test_failed_turn_without_retry_dooms(self):
        spec = turn_spec(0, stages=2)
        aborted = Request(spec=spec, arrival_time=0.0)
        aborted.admit(0.0)
        aborted.abort(0.3)
        summary = summarize_sessions([], failed=[aborted])
        # The session never appears in served requests, only via the doom set
        # folded over the requests that did: nothing served means no outcome
        # rows, so fold the aborted turn in through the served list instead.
        assert summary.num_sessions == 0
        summary = summarize_sessions(
            [finished_turn(turn_spec(1, session_id="s0", stages=2))], failed=[aborted]
        )
        assert summary.abandoned_sessions == 1

    def test_sla_violations_counted_per_session(self):
        sla = SLASpec(ttft_limit=1.0, mtpot_limit=10.0)
        ok = finished_turn(turn_spec(0, session_id="fast", stages=1), ttft=0.2)
        slow = finished_turn(turn_spec(0, session_id="slow", stages=1), ttft=5.0)
        summary = summarize_sessions([ok, slow], sla=sla)
        assert summary.sla_violating_sessions == 1

    def test_prefix_stats_attach_to_the_summary(self):
        stats = PrefixCacheStats(hits=3, misses=1)
        summary = summarize_sessions(
            [finished_turn(turn_spec(0, stages=1))], prefix_stats=stats
        )
        assert summary.prefix_hit_rate == 0.75
        assert summary.summary()["prefix"]["hits"] == 3
        cacheless = summarize_sessions([finished_turn(turn_spec(0, stages=1))])
        assert cacheless.prefix_hit_rate == 0.0
        assert "prefix" not in cacheless.summary()


def small_sessions(num_sessions: int = 8):
    return generate_interactions(
        num_sessions,
        seed=9,
        mean_prompt_tokens=24.0,
        mean_output_tokens=8.0,
        min_turns=2,
        max_turns=4,
    )


class TestRunSessionsEndToEnd:
    def test_server_run_sessions_completes_and_reuses_prefixes(self, platform_7b):
        simulator = ServingSimulator(
            platform=platform_7b,
            scheduler=ConservativeScheduler(),
            token_capacity_override=TINY_CAPACITY,
            prefix_cache_tokens=TINY_CAPACITY // 2,
        )
        result = simulator.run_sessions(small_sessions())
        assert_conservation(result)
        summary = result.session_summary()
        assert summary.num_sessions == 8
        assert summary.completed_sessions == 8
        assert summary.abandoned_sessions == 0
        assert result.prefix_stats is not None
        assert result.prefix_stats.hits > 0
        assert result.prefix_stats.reused_tokens > 0
        # A later stage re-arrives only after its predecessor finished.
        assert summary.total_turns == sum(s.num_stages for s in small_sessions())

    def test_budget_at_or_above_the_pool_is_bounded_by_pool_pressure(self, platform_7b):
        # Cached tokens count in the pool's used tokens, so residency never
        # exceeds the pool: a budget of 10x the pool runs exactly like one
        # equal to it.  The 512-token pool forces prefix evictions.
        def run(budget: int):
            simulator = ServingSimulator(
                platform=platform_7b,
                scheduler=ConservativeScheduler(),
                token_capacity_override=512,
                prefix_cache_tokens=budget,
            )
            return simulator.run_sessions(small_sessions(16))

        at_pool = run(512)
        assert at_pool.prefix_stats.evictions > 0
        assert_fingerprint_neutral(run(10 * 512), at_pool, label="a budget above the pool")
        for budget in (0, -1):
            with pytest.raises(ValueError, match="prefix_cache_tokens"):
                run(budget)

    def test_cluster_fast_path_matches_reference_with_sessions(self, platform_7b):
        def run(fast_path: bool):
            simulator = ClusterSimulator(
                platform=platform_7b,
                num_replicas=2,
                router="session-affinity",
                scheduler_name="conservative",
                token_capacity_override=TINY_CAPACITY,
                prefix_cache_tokens=TINY_CAPACITY // 2,
                fast_path=fast_path,
            )
            return simulator.run_sessions(small_sessions())

        fast, reference = run(True), run(False)
        assert_rng_stream_identity(fast, reference)
        stats = fast.jump_stats
        assert stats is not None
        assert stats.silent_jumps + stats.saturated_jumps > 0

    def test_think_time_lookahead_is_exact_and_removes_clips(self, platform_7b):
        # Each replica bounds the other's jumps at its clock plus the think
        # time: exact at every think time, from none to far longer than a
        # decode iteration, and long think times leave little to clip.
        def run(fast_path: bool, think_time: float):
            simulator = ClusterSimulator(
                platform=platform_7b,
                num_replicas=2,
                router="session-affinity",
                scheduler_name="conservative",
                token_capacity_override=TINY_CAPACITY,
                prefix_cache_tokens=TINY_CAPACITY // 2,
                fast_path=fast_path,
            )
            sessions = [
                dataclasses.replace(it, think_time=think_time) for it in small_sessions()
            ]
            return simulator.run_sessions(sessions)

        clips = {}
        for think_time in (0.0, 1e-3, 20.0):
            fast = run(True, think_time)
            assert_rng_stream_identity(fast, run(False, think_time))
            assert_conservation(fast)
            clips[think_time] = fast.jump_stats.fallback_reasons.get("silent:horizon-clip", 0)
        assert clips[0.0] >= 8
        assert clips[20.0] * 4 <= clips[0.0]

    def test_spawned_follow_ups_are_handled_at_their_arrival_time(self, platform_7b):
        # A completion can spawn a follow-up due before every event the loop
        # already knows of.  Think times below, near and far above the
        # other replicas' iterations mix the cases; a follow-up the loop
        # noticed late would be late on both loops alike.
        think_times = (0.05, 3.0, 0.4)
        sessions = [
            dataclasses.replace(it, think_time=think_times[i % len(think_times)])
            for i, it in enumerate(small_sessions(12))
        ]

        def run(fast_path: bool):
            tracer = RingTracer()
            simulator = ClusterSimulator(
                platform=platform_7b,
                num_replicas=3,
                router="session-affinity",
                scheduler_name="conservative",
                token_capacity_override=TINY_CAPACITY,
                prefix_cache_tokens=TINY_CAPACITY // 2,
                fast_path=fast_path,
                tracer=tracer,
            )
            result = simulator.run_sessions(sessions)
            assert tracer.dropped == 0
            assert_no_late_arrivals(tracer.events, result)
            return result

        assert_rng_stream_identity(run(True), run(False))

    def test_cluster_affinity_beats_blind_hit_rate(self, platform_7b):
        def run(router: str):
            simulator = ClusterSimulator(
                platform=platform_7b,
                num_replicas=2,
                router=router,
                scheduler_name="conservative",
                token_capacity_override=TINY_CAPACITY,
                prefix_cache_tokens=TINY_CAPACITY // 2,
            )
            return simulator.run_sessions(small_sessions())

        affinity = run("session-affinity")
        blind = run("round-robin")
        assert_conservation(affinity)
        assert affinity.prefix_stats is not None and blind.prefix_stats is not None
        assert affinity.prefix_stats.hit_rate > blind.prefix_stats.hit_rate
