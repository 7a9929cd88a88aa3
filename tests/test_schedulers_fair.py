"""Tests for the Virtual Token Counter fair schedulers."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.engine.engine import InferenceEngine
from repro.engine.request import Request
from repro.schedulers.fair import (
    ANONYMOUS_TENANT,
    VirtualTokenCounterScheduler,
    WeightedServiceCounterScheduler,
)
from repro.schedulers.registry import SCHEDULER_REGISTRY, create_scheduler
from repro.serving.server import ServingSimulator
from repro.workloads.tenants import assign_tenants, generate_tenant_population
from tests.conftest import TINY_CAPACITY, make_spec, make_workload
from tests.helpers import SchedulerQueue, deliver, vtc_counter


def tenant_request(
    request_id: str,
    user_id: str | None,
    input_length: int = 32,
    arrival_time: float = 0.0,
) -> Request:
    spec = replace(
        make_spec(request_id=request_id, input_length=input_length), user_id=user_id
    )
    return Request(spec=spec, arrival_time=arrival_time)


def finish(scheduler, request: Request, generated: int = 0) -> None:
    """Deliver ``generated`` tokens and fire the completion callback."""
    request.admit(0.0)
    request.note_prefill(request.recompute_tokens)
    deliver(request, [0.1 * (step + 1) for step in range(generated)])
    request.finish(0.1 * max(generated, 1))
    scheduler.on_request_finished(request, request.finish_time)


class TestCounterAccounting:
    def test_completion_charges_prefill_plus_decode(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        request = tenant_request("r0", "alice", input_length=32)
        scheduler.on_request_submitted(request)
        finish(scheduler, request, generated=16)
        assert vtc_counter(scheduler, "alice") == pytest.approx(32 + 16)

    def test_weighted_tenant_charged_slower(self):
        scheduler = WeightedServiceCounterScheduler(weights={"paid": 2.0})
        scheduler.on_run_start()
        paid = tenant_request("p", "paid", input_length=32)
        free = tenant_request("f", "free", input_length=32)
        for request in (paid, free):
            scheduler.on_request_submitted(request)
            finish(scheduler, request, generated=16)
        assert vtc_counter(scheduler, "paid") == pytest.approx((32 + 16) / 2.0)
        assert vtc_counter(scheduler, "free") == pytest.approx(32 + 16)

    def test_anonymous_tenant_for_tenantless_requests(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        request = tenant_request("r0", None, input_length=8)
        scheduler.on_request_submitted(request)
        finish(scheduler, request, generated=4)
        assert vtc_counter(scheduler, ANONYMOUS_TENANT) == pytest.approx(12)

    def test_on_run_start_resets_counters(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        request = tenant_request("r0", "alice")
        scheduler.on_request_submitted(request)
        finish(scheduler, request, generated=4)
        assert vtc_counter(scheduler, "alice") > 0
        scheduler.on_run_start()
        assert vtc_counter(scheduler, "alice") == 0.0


class TestArrivalLift:
    def test_lagged_tenant_lifted_to_active_minimum(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        # alice accrues debt and stays active (a second request in flight).
        first, second = (
            tenant_request("a0", "alice"),
            tenant_request("a1", "alice"),
        )
        scheduler.on_request_submitted(first)
        scheduler.on_request_submitted(second)
        finish(scheduler, first, generated=16)
        assert vtc_counter(scheduler, "alice") == pytest.approx(48)
        # bob arrives fresh: lifted to the active minimum, not admitted at 0.
        scheduler.on_request_submitted(tenant_request("b0", "bob"))
        assert vtc_counter(scheduler, "bob") == pytest.approx(48)

    def test_lift_never_lowers_a_counter(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        # carol accrued heavy debt, then went idle.
        heavy = tenant_request("c0", "carol", input_length=64)
        scheduler.on_request_submitted(heavy)
        finish(scheduler, heavy, generated=64)
        carol_debt = vtc_counter(scheduler, "carol")
        # alice is active with light debt.
        light = tenant_request("a0", "alice", input_length=8)
        keeper = tenant_request("a1", "alice", input_length=8)
        scheduler.on_request_submitted(light)
        scheduler.on_request_submitted(keeper)
        finish(scheduler, light, generated=4)
        # carol returns: the floor is below her debt, which must stick.
        scheduler.on_request_submitted(tenant_request("c1", "carol"))
        assert vtc_counter(scheduler, "carol") == pytest.approx(carol_debt)

    def test_no_lift_while_tenant_is_active(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        # alice becomes active while bob is still at zero debt...
        bob = tenant_request("b0", "bob")
        bob_keeper = tenant_request("b1", "bob")
        scheduler.on_request_submitted(bob)
        scheduler.on_request_submitted(bob_keeper)
        scheduler.on_request_submitted(tenant_request("a0", "alice"))
        # ...then bob accrues debt.  A second alice arrival while she is
        # STILL active must not lift her to bob's counter.
        finish(scheduler, bob, generated=32)
        assert vtc_counter(scheduler, "bob") > 0
        scheduler.on_request_submitted(tenant_request("a1", "alice"))
        assert vtc_counter(scheduler, "alice") == 0.0

    def test_first_arrival_with_no_active_tenants_stays_at_zero(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        scheduler.on_request_submitted(tenant_request("a0", "alice"))
        assert vtc_counter(scheduler, "alice") == 0.0


class TestAdmissionOrdering:
    def test_lowest_counter_tenant_admitted_first(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        # alice has debt; bob does not.  Bob's request jumps the queue.
        # (Bob arrives before alice's charge lands, so the arrival lift sees
        # a zero floor and leaves his counter at zero.)
        debt = tenant_request("a0", "alice")
        keeper = tenant_request("a1", "alice")
        bob = tenant_request("b0", "bob")
        queue = SchedulerQueue(scheduler, [debt, keeper, bob])
        queue.dequeue(debt)
        finish(scheduler, debt, generated=32)
        admitted = scheduler.schedule(queue.context())
        assert admitted == [bob, keeper]

    def test_fifo_within_a_tenant(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        queued = [tenant_request(f"a{index}", "alice") for index in range(3)]
        admitted = scheduler.schedule(SchedulerQueue(scheduler, queued).context())
        assert admitted == queued

    def test_provisional_charging_rotates_equal_tenants(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        a0 = tenant_request("a0", "alice")
        a1 = tenant_request("a1", "alice")
        b0 = tenant_request("b0", "bob")
        # Both tenants at counter 0: after alice's first pick she is
        # provisionally charged, so bob's request comes before her second.
        admitted = scheduler.schedule(SchedulerQueue(scheduler, [a0, a1, b0]).context())
        assert admitted == [a0, b0, a1]

    def test_later_eviction_is_considered_first_across_tenants(self):
        scheduler = VirtualTokenCounterScheduler()
        a0, a1, b0 = tenant_request("a0", "alice"), tenant_request("a1", "alice"), tenant_request("b0", "bob")
        queue = SchedulerQueue(scheduler, [a0, a1, b0])
        for request in (a0, b0):
            queue.dequeue(request)
        queue.evict(a0)
        queue.evict(b0)
        assert list(queue.waiting) == [b0, a0, a1]
        # Every counter is 0, so queue position decides: bob's re-queued
        # request is at the very front.
        assert scheduler.schedule(queue.context()) == [b0, a0, a1]

    def test_dequeue_of_a_non_head_fails_naming_request_and_tenant(self):
        scheduler = VirtualTokenCounterScheduler()
        a0, a1 = tenant_request("a0", "alice"), tenant_request("a1", "alice")
        SchedulerQueue(scheduler, [a0, a1])
        with pytest.raises(RuntimeError, match="a1 left the queue but is not the head of tenant 'alice'"):
            scheduler.on_request_dequeued(a1)
        stranger = tenant_request("s0", "carol")
        with pytest.raises(RuntimeError, match="s0 .* tenant 'carol'"):
            scheduler.on_request_dequeued(stranger)

    def test_stops_at_first_non_fitting_candidate(self):
        scheduler = VirtualTokenCounterScheduler(watermark=1.0)
        scheduler.on_run_start()
        # bob (lowest counter) does not fit; alice (fits) must NOT be
        # admitted around him — the one-comparison horizon proof depends on
        # this break.  Bob arrives before alice's charge lands so his
        # counter stays at zero.
        blocker = tenant_request("b0", "bob", input_length=900)
        small = tenant_request("a0", "alice", input_length=10)
        alice_debtor = tenant_request("a1", "alice")
        queue = SchedulerQueue(scheduler, [alice_debtor, small, blocker])
        queue.dequeue(alice_debtor)
        finish(scheduler, alice_debtor, generated=32)
        running = [tenant_request("r", None, input_length=200)]
        assert list(queue.waiting) == [small, blocker]
        context = queue.context(running, token_capacity=1000)
        assert scheduler.schedule(context) == []

    def test_bootstrap_admits_oversized_head_into_empty_batch(self):
        scheduler = VirtualTokenCounterScheduler(watermark=0.5)
        scheduler.on_run_start()
        big = tenant_request("a0", "alice", input_length=800)
        context = SchedulerQueue(scheduler, [big]).context(token_capacity=1000)
        assert scheduler.schedule(context) == [big]

    def test_schedule_does_not_mutate_counters(self):
        scheduler = VirtualTokenCounterScheduler()
        scheduler.on_run_start()
        request = tenant_request("a0", "alice")
        scheduler.schedule(SchedulerQueue(scheduler, [request]).context())
        # Provisional charges are local to the consult.
        assert vtc_counter(scheduler, "alice") == 0.0


class TestConsultCost:
    def test_calls_bounded_by_tenants_plus_admitted(self):
        """A consult reads counters and tenant heads, not the whole queue and batch."""
        scheduler = VirtualTokenCounterScheduler(watermark=1.0)
        waiting = [tenant_request(f"q{i}", f"t{i % 3}", input_length=8) for i in range(100)]
        queue = SchedulerQueue(scheduler, waiting)
        running = [tenant_request(f"r{i}", "t0", input_length=40) for i in range(20)]
        calls = Counter()
        for name in ("_tenant", "_cost"):
            method = getattr(scheduler, name)

            def counted(request, method=method, name=name):
                calls[name] += 1
                return method(request)

            setattr(scheduler, name, counted)
        # 800 running tokens leave room for 25 of the 8-token prompts.
        admitted = scheduler.schedule(queue.context(running, token_capacity=1000))
        assert len(admitted) == 25
        tenants = 3
        assert calls["_tenant"] <= tenants + len(admitted), calls
        assert calls["_cost"] <= tenants + len(admitted), calls
        calls.clear()
        blocked = queue.context(running, token_capacity=805)
        assert scheduler.saturated_no_admit_horizon(blocked, 10) == 10
        assert calls["_tenant"] + calls["_cost"] <= tenants, calls


class TestSaturatedHorizon:
    def _saturated_scheduler(self):
        scheduler = VirtualTokenCounterScheduler(watermark=0.9)
        scheduler.on_run_start()
        return scheduler

    def test_zero_without_waiting_or_running(self):
        scheduler = self._saturated_scheduler()
        queue = SchedulerQueue(scheduler, [tenant_request("w", "alice")])
        running = [tenant_request("r", None, input_length=100)]
        assert scheduler.saturated_no_admit_horizon(SchedulerQueue(scheduler).context(running), 10) == 0
        assert scheduler.saturated_no_admit_horizon(queue.context(), 10) == 0
        assert scheduler.saturated_no_admit_horizon(queue.context(running), 0) == 0

    def test_full_horizon_when_head_does_not_fit(self):
        scheduler = self._saturated_scheduler()
        waiting = [tenant_request("w", "alice", input_length=200)]
        running = [tenant_request("r", None, input_length=800)]
        context = SchedulerQueue(scheduler, waiting).context(running, token_capacity=1000)
        assert scheduler.saturated_no_admit_horizon(context, 10) == 10

    def test_zero_when_head_fits(self):
        scheduler = self._saturated_scheduler()
        waiting = [tenant_request("w", "alice", input_length=50)]
        running = [tenant_request("r", None, input_length=100)]
        context = SchedulerQueue(scheduler, waiting).context(running, token_capacity=1000)
        assert scheduler.saturated_no_admit_horizon(context, 10) == 0

    def test_head_is_lowest_counter_not_queue_front(self):
        scheduler = self._saturated_scheduler()
        # alice (queue front) has debt and a small request; bob has none and
        # a big one.  The proof must test bob's request, the true first pick.
        # Bob goes active before alice's charge lands so he is not lifted.
        big = tenant_request("b0", "bob", input_length=400)
        debtor = tenant_request("a0", "alice")
        small = tenant_request("a1", "alice", input_length=10)
        queue = SchedulerQueue(scheduler, [debtor, small, big])
        queue.dequeue(debtor)
        finish(scheduler, debtor, generated=64)
        running = [tenant_request("r", None, input_length=600)]
        assert list(queue.waiting) == [small, big]
        context = queue.context(running, token_capacity=1000)
        # bob's 400 does not fit over 600 occupied at watermark 0.9 -> whole
        # window proven, even though alice's 10 would fit.
        assert scheduler.saturated_no_admit_horizon(context, 10) == 10

    def test_horizon_does_not_mutate_state(self):
        scheduler = self._saturated_scheduler()
        waiting = [tenant_request("w", "alice", input_length=200)]
        running = [tenant_request("r", None, input_length=800)]
        context = SchedulerQueue(scheduler, waiting).context(running, token_capacity=1000)
        before = vtc_counter(scheduler, "alice")
        scheduler.saturated_no_admit_horizon(context, 10)
        assert vtc_counter(scheduler, "alice") == before


class TestConstructionAndRegistry:
    def test_registered_names(self):
        assert "vtc" in SCHEDULER_REGISTRY
        assert "weighted-vtc" in SCHEDULER_REGISTRY
        assert isinstance(create_scheduler("vtc"), VirtualTokenCounterScheduler)
        weighted = create_scheduler("weighted-vtc", weights={"u": 2.0})
        assert isinstance(weighted, WeightedServiceCounterScheduler)

    def test_validation(self):
        with pytest.raises(ValueError, match="watermark"):
            VirtualTokenCounterScheduler(watermark=0.0)
        with pytest.raises(ValueError, match="positive"):
            WeightedServiceCounterScheduler(weights={"u": -1.0})

    def test_describe_mentions_parameters(self):
        assert "95%" in VirtualTokenCounterScheduler(watermark=0.95).describe()
        described = WeightedServiceCounterScheduler(weights={"u": 2.0}).describe()
        assert "weighted-vtc" in described


class TestEngineIntegration:
    def test_untenanted_vtc_matches_aggressive_bit_for_bit(self, platform_7b):
        from repro.analysis.perf import run_fingerprint

        workload = make_workload(num_requests=40)
        digests = {}
        for name in ("aggressive", "vtc"):
            simulator = ServingSimulator(
                platform_7b,
                create_scheduler(name, watermark=0.9),
                token_capacity_override=TINY_CAPACITY,
            )
            digests[name] = run_fingerprint(
                simulator.run_closed_loop(workload, num_clients=8)
            )
        assert digests["vtc"] == digests["aggressive"]

    def test_evicted_request_is_considered_before_its_tenants_later_arrivals(self, platform_7b):
        scheduler = VirtualTokenCounterScheduler(watermark=1.0)
        engine = InferenceEngine(platform_7b, scheduler, token_capacity_override=1000)
        first = tenant_request("a0", "alice")
        engine.submit(first)
        engine.step(0.0)
        later, bob = tenant_request("a1", "alice"), tenant_request("b0", "bob")
        engine.submit(later)
        engine.submit(bob)
        engine._evict(first, 1.0)
        assert list(engine.waiting) == [first, later, bob]
        # Every counter is 0, so queue position decides the first pick; its
        # provisional charge then puts bob ahead of alice's later request.
        assert scheduler.schedule(engine._scheduling_context()) == [first, bob, later]

    @pytest.mark.parametrize("name", ["vtc", "weighted-vtc"])
    def test_fast_path_bit_identity_with_tenants(self, platform_7b, name):
        from repro.analysis.perf import run_fingerprint
        from repro.workloads.sharegpt import generate_sharegpt_workload
        from repro.workloads.spec import scale_workload

        population = generate_tenant_population(
            8, num_apps=2, abusive_users=1, abusive_share=0.5
        )
        workload = assign_tenants(
            scale_workload(generate_sharegpt_workload(40, seed=3), 0.25),
            population,
            seed=1,
        )
        digests = {}
        for fast_path in (True, False):
            simulator = ServingSimulator(
                platform_7b,
                create_scheduler(name, watermark=0.9),
                token_capacity_override=TINY_CAPACITY,
                fast_path=fast_path,
            )
            digests[fast_path] = run_fingerprint(
                simulator.run_closed_loop(workload, num_clients=8)
            )
        assert digests[True] == digests[False]

    def test_fair_serving_evens_out_heavy_tail(self, platform_7b):
        """End to end: VTC spreads finish order across tenants vs FCFS."""
        from repro.serving.sla import SLASpec
        from repro.workloads.arrivals import assign_poisson_arrivals
        from repro.workloads.sharegpt import generate_sharegpt_workload
        from repro.workloads.spec import scale_workload

        population = generate_tenant_population(
            12, abusive_users=1, abusive_share=0.6
        )
        workload = assign_tenants(
            scale_workload(generate_sharegpt_workload(300, seed=21), 1 / 16),
            population,
            seed=13,
        )
        workload = assign_poisson_arrivals(workload, request_rate=80.0, seed=9)
        sla = SLASpec(ttft_limit=1.0, mtpot_limit=0.5)
        jain = {}
        for name in ("aggressive", "vtc"):
            simulator = ServingSimulator(
                platform_7b,
                create_scheduler(name, watermark=0.95),
                token_capacity_override=TINY_CAPACITY // 4,
                chunked_prefill_tokens=512,
            )
            result = simulator.run_open_loop(workload)
            assert result.completed
            jain[name] = result.fairness_summary(sla).jain_goodput
        assert jain["vtc"] > jain["aggressive"]
