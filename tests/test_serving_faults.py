"""Fault injection: crashes, stragglers, recovery.

Three invariants anchor every test here:

* **determinism** — the same seeded :class:`FaultPlan` yields bit-identical
  results across runs (chaos is an experiment, not noise);
* **conservation** — routed + rejected always equals submitted, no matter
  what dies mid-run (crashed work re-routes or lands in ``reject_reasons``
  with a typed reason, never vanishes);
* **neutrality** — with ``faults=None`` the fault subsystem is byte-invisible
  (zero-default counters, no snapshot block, no extra events).
"""

from __future__ import annotations

import contextlib
from itertools import islice
from unittest import mock

import pytest

from repro.analysis.perf import cluster_fingerprint, cluster_snapshot
from repro.engine.cost_model import CostModel, StepWork
from repro.obs import events as obs
from repro.obs.tracer import RingTracer
from repro.serving.cluster import ClusterSimulator, _Replica
from repro.serving.faults import (
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    REASON_NO_REPLICAS,
    REASON_REPLICA_CRASH,
    REASON_RETRIES_EXHAUSTED,
    REASON_UNROUTED,
    FaultInjector,
    FaultPlan,
    ReplicaCrash,
    RetryPolicy,
    SlowdownCostModel,
    Straggler,
    hash_fraction,
)
from repro.serving.routing import ReplicaView, Router
from repro.serving.server import SimulationLimits
from repro.workloads.arrivals import ArrivalQueue
from repro.workloads.spec import RequestSpec, Workload
from tests.helpers import assert_conservation, assert_rng_stream_identity


def make_cluster(platform_7b, faults=None, num_replicas=3, **kwargs):
    return ClusterSimulator(
        platform=platform_7b,
        num_replicas=num_replicas,
        router=kwargs.pop("router", "least-outstanding"),
        scheduler_name="conservative",
        token_capacity_override=kwargs.pop("capacity", 2048),
        faults=faults,
        **kwargs,
    )


def spread_workload(num_requests=24, output=32, spacing=0.05):
    """Requests arriving one every ``spacing`` seconds (keeps replicas busy)."""
    specs = [
        RequestSpec(
            request_id=f"f-{i:03d}",
            input_length=32,
            output_length=output,
            max_new_tokens=output,
            arrival_time=i * spacing,
        )
        for i in range(num_requests)
    ]
    return Workload(name="recovery-suite", requests=specs)


class TestPlanAndPolicy:
    def test_hash_fraction_is_deterministic_and_uniformish(self):
        assert hash_fraction(1, "a", 2) == hash_fraction(1, "a", 2)
        assert hash_fraction(1, "a", 2) != hash_fraction(1, "a", 3)
        values = [hash_fraction("u", i) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7

    def test_retry_policy_backoff_caps_and_exhausts(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.3, max_attempts=3)
        delays = [policy.delay("r0", attempt) for attempt in range(4)]
        assert delays[3] is None  # budget spent
        base = [0.1, 0.2, 0.3]  # capped at max_delay
        for delay, expected in zip(delays[:3], base):
            assert expected <= delay <= expected * 1.1 + 1e-12  # jitter is additive-only

    def test_retry_jitter_varies_by_request_not_by_call(self):
        policy = RetryPolicy(seed=3)
        assert policy.delay("a", 0) == policy.delay("a", 0)
        assert policy.delay("a", 0) != policy.delay("b", 0)

    def test_retry_jitter_adds_a_tenth_of_the_hash_fraction(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.3, seed=5)
        for attempt, backoff in enumerate([0.1, 0.2, 0.3]):
            assert policy.delay("r7", attempt) == backoff * (1.0 + 0.1 * hash_fraction(5, "r7", attempt))

    def test_plan_validation_and_describe(self):
        invalid = [
            lambda: Straggler(start=0.0, duration=1.0, replica=0, slowdown=1.0),
            lambda: ReplicaCrash(time=5.0, replica=-1),
            lambda: Straggler(start=5.0, duration=1.0, replica=-1),
        ]
        for build in invalid:
            with pytest.raises(ValueError):
                build()
        plan = FaultPlan(crashes=[ReplicaCrash(time=1.0, replica=0)])
        assert "1 crash" in plan.describe()
        assert "no faults" in FaultPlan().describe()

    def test_injector_orders_same_instant_crash_before_straggler_start(self):
        plan = FaultPlan(
            crashes=[ReplicaCrash(time=5.0, replica=0)],
            stragglers=[Straggler(start=5.0, duration=1.0, replica=1)],
        )
        injector = FaultInjector(plan)
        assert injector.next_event_time() == 5.0
        kinds = [action.kind for action in injector.pop_due(5.0)]
        assert kinds == ["crash", "straggler-start"]

    def test_slowdown_cost_model_scales_both_paths(self, platform_7b):
        inner = CostModel(platform_7b)
        slow = SlowdownCostModel(inner, 2.0)
        work = StepWork(prefill_tokens=0, decode_requests=8, decode_context_tokens=512)
        assert slow.step_seconds(work) == inner.step_seconds(work) * 2.0
        fast = list(islice(slow.decode_durations(8, 512), 4))
        reference = list(islice(inner.decode_durations(8, 512), 4))
        assert fast == [d * 2.0 for d in reference]
        assert fast[0] == slow.step_seconds(work)


class TestHealthRouting:
    def _view(self, replica_id, health):
        return ReplicaView(
            replica_id=replica_id, token_capacity=1024, used_tokens=0, health=health
        )

    def test_candidates_prefer_healthy_over_degraded(self):
        views = [self._view(0, HEALTH_DEGRADED), self._view(1, HEALTH_HEALTHY)]
        chosen = Router.candidates(views)
        assert [v.replica_id for v in chosen] == [1]

    def test_degraded_still_routable_when_nothing_healthy(self):
        views = [self._view(0, HEALTH_DEGRADED), self._view(1, HEALTH_DEGRADED)]
        chosen = Router.candidates(views)
        assert [v.replica_id for v in chosen] == [0, 1]

    def test_view_rejects_unknown_health(self):
        with pytest.raises(ValueError):
            self._view(0, "zombie")


class TestCrashRecovery:
    def test_crash_aborts_redispatches_and_replaces(self, platform_7b):
        plan = FaultPlan(crashes=[ReplicaCrash(time=0.2, replica=0)], seed=5)
        result = make_cluster(platform_7b, plan).run_open_loop(spread_workload())
        assert result.completed
        # Crashed work re-routes and everything still finishes.
        assert len(result.finished_requests) == 24
        assert_conservation(result, 24)
        assert len(result.failed) >= 1
        assert result.retries >= len(result.failed)
        # The dead replica was replaced: four lifetimes, one retired.
        assert len(result.lifetimes) == 4
        assert result.fault_events[0].kind == "crash"

    def test_crash_without_recovery_rejects_typed(self, platform_7b):
        plan = FaultPlan(
            crashes=[ReplicaCrash(time=0.2, replica=0)],
            seed=5,
            retry_policy=None,
            replace_crashed=False,
        )
        result = make_cluster(platform_7b, plan).run_open_loop(spread_workload())
        assert len(result.failed) >= 1
        assert result.reject_reasons.get(REASON_REPLICA_CRASH) == len(result.failed)
        assert_conservation(result, 24)
        assert result.retries == 0

    def test_snapshot_of_an_acting_plan_keeps_the_pinned_fault_block(self, platform_7b):
        # Pinned fingerprints hash this block's repr, so its keys and their
        # order are part of the format; ``migrations`` stays, always 0.
        plan = FaultPlan(crashes=[ReplicaCrash(time=0.2, replica=0)], seed=5)
        snapshot = cluster_snapshot(make_cluster(platform_7b, plan).run_open_loop(spread_workload()))
        keys = list(snapshot)
        start = keys.index("failed")
        assert keys[start : start + 5] == ["failed", "lost_tokens", "retries", "migrations", "faults"]
        assert snapshot["migrations"] == 0
        assert snapshot["retries"] >= len(snapshot["failed"]) >= 1

    def test_crash_is_deterministic(self, platform_7b):
        plan = FaultPlan(crashes=[ReplicaCrash(time=0.2, replica=0)], seed=5)
        first = make_cluster(platform_7b, plan).run_open_loop(spread_workload())
        second = make_cluster(platform_7b, plan).run_open_loop(spread_workload())
        assert cluster_fingerprint(first) == cluster_fingerprint(second)

    def test_all_replicas_dead_rejects_rest_no_replicas(self, platform_7b):
        plan = FaultPlan(
            crashes=[ReplicaCrash(time=0.2, replica=i) for i in range(2)],
            seed=5,
            retry_policy=None,
            replace_crashed=False,
        )
        result = make_cluster(platform_7b, plan, num_replicas=2).run_open_loop(
            spread_workload(num_requests=30, spacing=0.05)
        )
        # The run terminates (no infinite retry loop against a dead fleet)
        # and every late arrival lands in a typed reject bucket.
        assert_conservation(result, 30)
        assert result.reject_reasons.get(REASON_NO_REPLICAS, 0) >= 1
        assert len(result.finished_requests) < 30

    def test_second_crash_exhausts_retries_typed(self, platform_7b):
        # The first crash spends each request's one retry; the second kills
        # the replacement that retry landed on, so every request is rejected
        # as retries-exhausted and the run still drains.
        plan = FaultPlan(
            crashes=[ReplicaCrash(time=0.1, replica=0), ReplicaCrash(time=0.3, replica=1)],
            retry_policy=RetryPolicy(base_delay=0.01, max_attempts=1),
        )
        result = make_cluster(platform_7b, plan, num_replicas=1).run_open_loop(
            spread_workload(num_requests=6, output=400, spacing=0.01)
        )
        assert result.termination == "drained"
        assert len(result.finished_requests) == 0
        assert result.reject_reasons == {REASON_RETRIES_EXHAUSTED: 6}
        assert_conservation(result, 6)

    def test_trace_carries_fail_and_retry_events(self, platform_7b):
        plan = FaultPlan(crashes=[ReplicaCrash(time=0.2, replica=0)], seed=5)
        ring = RingTracer()
        result = make_cluster(platform_7b, plan, tracer=ring).run_open_loop(spread_workload())
        names = [event.name for event in ring.events]
        assert obs.REPLICA_FAIL in names
        assert names.count(obs.REQUEST_RETRY) == result.retries
        fail = next(e for e in ring.events if e.name == obs.REPLICA_FAIL)
        assert fail.attrs["cause"] == "crash"
        assert fail.replica == 0


class TestStragglers:
    def test_straggler_slows_then_recovers(self, platform_7b):
        # Arrivals span well past the window's end so the straggler-end
        # fault action fires while the run is still alive.
        workload = spread_workload(num_requests=40, spacing=0.05)
        plan = FaultPlan(
            stragglers=[Straggler(start=0.1, duration=1.0, replica=0, slowdown=4.0)]
        )
        cluster = make_cluster(platform_7b, plan, num_replicas=1)
        result = cluster.run_open_loop(workload)
        kinds = [event.kind for event in result.fault_events]
        assert kinds == ["straggler-start", "straggler-end"]
        # Model restored after the window.
        assert not isinstance(cluster.replicas[0].engine.cost_model, SlowdownCostModel)
        assert cluster.replicas[0].snapshot().health == HEALTH_HEALTHY
        # The slowdown costs real simulated time against a fault-free run:
        # per-token step cost is scaled while the window is open, so mean
        # time-per-output-token must rise (end-to-end duration is arrival-
        # dominated here and would be an unreliable signal).
        baseline = make_cluster(platform_7b, None, num_replicas=1).run_open_loop(workload)
        assert result.latency_summary().mean_tpot > baseline.latency_summary().mean_tpot

    def test_straggling_replica_reports_degraded(self, platform_7b):
        straggler = Straggler(start=0.0, duration=1.0, replica=0, slowdown=4.0)
        cluster = make_cluster(platform_7b, FaultPlan(stragglers=[straggler]), num_replicas=1)
        replica = cluster.replicas[0]
        cluster._begin_straggler(replica, 0.0, straggler)
        assert replica.snapshot().health == HEALTH_DEGRADED
        cluster._end_straggler(replica, 1.0)
        assert replica.snapshot().health == HEALTH_HEALTHY

    def test_straggler_run_is_deterministic(self, platform_7b):
        plan = FaultPlan(
            stragglers=[Straggler(start=0.1, duration=1.0, replica=0, slowdown=4.0)]
        )
        first = make_cluster(platform_7b, plan).run_open_loop(spread_workload())
        second = make_cluster(platform_7b, plan).run_open_loop(spread_workload())
        assert cluster_fingerprint(first) == cluster_fingerprint(second)


class TestEndOfRunFlush:
    def test_deferred_requests_reject_typed_on_abnormal_end(self, platform_7b):
        # A crash on replica 0 parks its requests for a retry far in the
        # future while replica 1 keeps stepping through its own work; a
        # max_steps limit then kills the run before the retries fire.  The
        # parked requests must surface in reject_reasons as unrouted-at-end,
        # not silently vanish.
        plan = FaultPlan(
            crashes=[ReplicaCrash(time=0.2, replica=0)],
            seed=5,
            retry_policy=RetryPolicy(base_delay=500.0, max_delay=500.0),
            replace_crashed=False,
        )
        result = make_cluster(
            platform_7b,
            plan,
            num_replicas=2,
            limits=SimulationLimits(max_steps=60),
        ).run_open_loop(spread_workload(num_requests=8, output=256, spacing=0.0))
        assert result.termination == "max_steps"
        assert not result.completed
        assert result.reject_reasons.get(REASON_UNROUTED, 0) >= 1
        assert_conservation(result, 8)


class TestSkippedActions:
    @pytest.mark.parametrize(
        "plan, kinds",
        [
            (FaultPlan(crashes=[ReplicaCrash(time=0.2, replica=7)]), ["skipped:crash"]),
            (
                FaultPlan(stragglers=[Straggler(start=0.1, duration=0.3, replica=9)]),
                ["skipped:straggler-start", "skipped:straggler-end"],
            ),
        ],
        ids=["crash", "straggler"],
    )
    def test_action_on_a_replica_that_never_exists_is_logged_and_skipped(
        self, platform_7b, plan, kinds
    ):
        fingerprints = []
        for fast_path in (True, False):
            ring = RingTracer()
            cluster = make_cluster(
                platform_7b, plan, num_replicas=2, fast_path=fast_path, tracer=ring
            )
            result = cluster.run_open_loop(spread_workload())
            assert [event.kind for event in result.fault_events] == kinds
            assert all(e.detail == {"reason": "no-such-replica"} for e in result.fault_events)
            assert obs.REPLICA_FAIL not in {event.name for event in ring.events}
            assert result.routed_requests + len(result.rejected) == 24
            fingerprints.append(cluster_fingerprint(result))
        assert fingerprints[0] == fingerprints[1]


class TestNeutrality:
    def test_no_plan_leaves_zero_defaults_and_no_snapshot_block(self, platform_7b):
        result = make_cluster(platform_7b, None).run_open_loop(spread_workload())
        assert result.failed == []
        assert result.retries == 0
        assert result.lost_tokens == 0
        assert result.fault_events == []
        assert result.fault_plan is None
        snapshot = cluster_snapshot(result)
        assert "faults" not in snapshot
        assert "fault" not in result.describe()

    def test_no_plan_emits_no_fault_trace_events(self, platform_7b):
        ring = RingTracer()
        make_cluster(platform_7b, None, tracer=ring).run_open_loop(spread_workload())
        names = {event.name for event in ring.events}
        assert not names & {
            obs.REPLICA_FAIL,
            obs.REPLICA_RECOVER,
            obs.REQUEST_RETRY,
        }

    def test_fast_path_matches_reference_under_faults(self, platform_7b):
        plan = FaultPlan(
            crashes=[ReplicaCrash(time=0.3, replica=1)],
            stragglers=[Straggler(start=0.1, duration=0.5, replica=0, slowdown=3.0)],
            seed=11,
        )
        fast = make_cluster(platform_7b, plan, fast_path=True).run_open_loop(spread_workload())
        reference = make_cluster(platform_7b, plan, fast_path=False).run_open_loop(
            spread_workload()
        )
        assert_rng_stream_identity(fast, reference)


def _counting(cls, name):
    """Patch ``cls.name`` with a call-counting wrapper around the original."""
    return mock.patch.object(cls, name, autospec=True, side_effect=getattr(cls, name))


class TestEventLoopPolling:
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_fault_schedule_is_read_per_event_not_per_turn(self, platform_7b, fast_path):
        # A replica step can move only the load generator's next arrival, so
        # the loop reads the fault schedule once at the start and once after
        # each event it handles: here arrivals and fault actions only (no
        # retries, no replacement, no autoscaler).  Step turns outnumber them.
        plan = FaultPlan(
            crashes=[ReplicaCrash(time=0.3, replica=1)],
            stragglers=[Straggler(start=0.1, duration=0.5, replica=0, slowdown=3.0)],
            seed=11,
            retry_policy=None,
            replace_crashed=False,
        )
        cluster = make_cluster(platform_7b, plan, fast_path=fast_path)
        targets = (
            (FaultInjector, "next_event_time"),
            (ClusterSimulator, "_apply_faults"),
            (ArrivalQueue, "pop_arrivals"),
            (_Replica, "advance"),
        )
        with contextlib.ExitStack() as stack:
            polls, faults, arrivals, steps = [stack.enter_context(_counting(*t)) for t in targets]
            result = cluster.run_open_loop(spread_workload())
        assert result.completed
        assert faults.call_count == 3  # crash, straggler start, straggler end
        assert polls.call_count <= faults.call_count + arrivals.call_count + 1
        assert steps.call_count > polls.call_count


class TestAvailabilityMetrics:
    def test_summary_counts_faults_and_recovery(self, platform_7b):
        from repro.metrics.availability import summarize_availability
        from repro.serving.sla import SLASpec

        plan = FaultPlan(
            crashes=[ReplicaCrash(time=0.2, replica=0)],
            stragglers=[Straggler(start=0.3, duration=0.5, replica=1, slowdown=2.0)],
            seed=5,
            replacement_warmup=1.0,
        )
        result = make_cluster(platform_7b, plan).run_open_loop(spread_workload())
        summary = summarize_availability(result, SLASpec(ttft_limit=60.0, mtpot_limit=60.0))
        assert summary.crashes == 1
        assert summary.stragglers == 1
        assert summary.failed_requests == len(result.failed)
        assert summary.retries == result.retries
        assert summary.delivery_rate == 1.0
        assert summary.mean_time_to_recovery == pytest.approx(1.0)

    def test_fault_free_run_reduces_to_goodput_and_delivery(self, platform_7b):
        from repro.metrics.availability import summarize_availability
        from repro.serving.sla import SLASpec

        sla = SLASpec(ttft_limit=60.0, mtpot_limit=60.0)
        result = make_cluster(platform_7b, None).run_open_loop(spread_workload())
        summary = summarize_availability(result, sla)
        assert summary.goodput == result.goodput(sla) > 0.0
        assert summary.delivery_rate == 1.0
        assert (summary.failed_requests, summary.lost_tokens, summary.retries) == (0, 0, 0)
        assert (summary.crashes, summary.stragglers) == (0, 0)
        assert summary.mean_time_to_recovery == 0.0
