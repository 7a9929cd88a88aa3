"""Unit tests for the cluster request routers."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.serving import routing
from repro.serving.autoscale import FleetView, PredictivePolicy
from repro.serving.routing import (
    LeastKVLoadRouter,
    LeastOutstandingRouter,
    MemoryAwareRouter,
    ReplicaView,
    RoundRobinRouter,
    Router,
    available_routers,
    create_router,
)
from tests.conftest import UNCAPPED, make_spec
from tests.helpers import grown_request


def snap(
    replica_id: int,
    capacity: int = 1000,
    used: int = 0,
    running: tuple[tuple[int, int], ...] = (),
    waiting: tuple[int, ...] = (),
) -> ReplicaView:
    """View builder; ``running`` is (current_tokens, generated) pairs, nothing is capped."""
    return ReplicaView(
        replica_id=replica_id,
        token_capacity=capacity,
        used_tokens=used,
        current_tokens=tuple(c for c, _ in running) + waiting,
        generated_tokens=tuple(g for _, g in running) + (0,) * len(waiting),
        remaining_cap_tokens=(UNCAPPED,) * (len(running) + len(waiting)),
        num_running=len(running),
    )


SPEC = make_spec()


class TestReplicaView:
    def test_derived_counts(self):
        snapshot = snap(0, capacity=100, used=40, running=((30, 10), (10, 2)), waiting=(20, 5))
        assert snapshot.num_running == 2
        assert snapshot.num_waiting == 2
        assert snapshot.outstanding == 4
        assert snapshot.queued_demand_tokens == 25
        assert snapshot.load_fraction == pytest.approx(0.65)
        assert not snapshot.saturated

    def test_saturation_counts_queued_demand(self):
        assert snap(0, capacity=100, used=60, waiting=(40,)).saturated
        assert snap(0, capacity=100, used=100).saturated
        assert not snap(0, capacity=100, used=60, waiting=(39,)).saturated

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaView(replica_id=0, token_capacity=0, used_tokens=0)
        with pytest.raises(ValueError):
            ReplicaView(replica_id=0, token_capacity=10, used_tokens=-1)
        with pytest.raises(ValueError):
            ReplicaView(
                replica_id=0,
                token_capacity=10,
                used_tokens=0,
                current_tokens=(1,),
                generated_tokens=(),
                remaining_cap_tokens=(1,),
                num_running=1,
            )
        with pytest.raises(ValueError, match="num_running"):
            ReplicaView(
                replica_id=0,
                token_capacity=10,
                used_tokens=0,
                current_tokens=(1,),
                generated_tokens=(0,),
                remaining_cap_tokens=(1,),
                num_running=2,
            )


class TestRoundRobin:
    def test_cycles_in_index_order(self):
        router = RoundRobinRouter()
        snapshots = [snap(i) for i in range(4)]
        picks = [router.decide(SPEC, snapshots) for _ in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_skips_saturated_replica(self):
        router = RoundRobinRouter()
        snapshots = [snap(0), snap(1, capacity=10, used=10), snap(2), snap(3)]
        picks = [router.decide(SPEC, snapshots) for _ in range(6)]
        assert picks == [0, 2, 3, 0, 2, 3]

    def test_all_saturated_falls_back_to_cycle(self):
        router = RoundRobinRouter()
        snapshots = [snap(i, capacity=10, used=10) for i in range(3)]
        picks = [router.decide(SPEC, snapshots) for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_reset_on_run_start(self):
        router = RoundRobinRouter()
        snapshots = [snap(i) for i in range(3)]
        assert router.decide(SPEC, snapshots) == 0
        router.on_run_start()
        assert router.decide(SPEC, snapshots) == 0

    def test_cycles_over_non_contiguous_ids(self):
        # Elastic fleets leave gaps in the id space (retired ids are never
        # reused); the rotation must treat ids as opaque keys.
        router = RoundRobinRouter()
        snapshots = [snap(0), snap(2), snap(5)]
        picks = [router.decide(SPEC, snapshots) for _ in range(5)]
        assert picks == [0, 2, 5, 0, 2]

    def test_survives_replica_set_churn(self):
        # The replica last served may vanish between calls (drained or
        # retired); the cursor then wraps within whatever set remains.
        router = RoundRobinRouter()
        assert router.decide(SPEC, [snap(0), snap(1), snap(2)]) == 0
        assert router.decide(SPEC, [snap(0), snap(1), snap(2)]) == 1
        # Replica 1 retires; a new replica 3 joins.
        assert router.decide(SPEC, [snap(0), snap(2), snap(3)]) == 2
        assert router.decide(SPEC, [snap(0), snap(2), snap(3)]) == 3
        assert router.decide(SPEC, [snap(0), snap(2), snap(3)]) == 0


class TestLeastOutstanding:
    def test_picks_fewest_in_flight(self):
        router = LeastOutstandingRouter()
        snapshots = [
            snap(0, running=((10, 1), (10, 1))),
            snap(1, running=((10, 1),), waiting=(5, 5)),
            snap(2, running=((10, 1),)),
        ]
        assert router.decide(SPEC, snapshots) == 2

    def test_tie_breaks_to_lowest_id(self):
        router = LeastOutstandingRouter()
        snapshots = [snap(2), snap(0), snap(1)]
        assert router.decide(SPEC, snapshots) == 0

    def test_excludes_saturated(self):
        router = LeastOutstandingRouter()
        snapshots = [snap(0, capacity=10, used=10), snap(1, running=((10, 1),))]
        assert router.decide(SPEC, snapshots) == 1


class TestLeastKVLoad:
    def test_picks_lowest_load_fraction(self):
        router = LeastKVLoadRouter()
        snapshots = [snap(0, used=500), snap(1, used=200), snap(2, used=300)]
        assert router.decide(SPEC, snapshots) == 1

    def test_counts_queued_demand(self):
        router = LeastKVLoadRouter()
        # Replica 1 looks emptier by resident tokens but has a deep queue.
        snapshots = [snap(0, used=300), snap(1, used=100, waiting=(300,))]
        assert router.decide(SPEC, snapshots) == 0

    def test_tie_breaks_to_lowest_id(self):
        router = LeastKVLoadRouter()
        snapshots = [snap(1, used=100), snap(0, used=100)]
        assert router.decide(SPEC, snapshots) == 0

    def test_excludes_saturated(self):
        router = LeastKVLoadRouter()
        snapshots = [snap(0, capacity=100, used=100), snap(1, used=900)]
        assert router.decide(SPEC, snapshots) == 1


class TestMemoryAware:
    def test_prefers_largest_predicted_headroom(self):
        router = MemoryAwareRouter(default_length=100)
        # Same resident token count, but replica 0's requests are young (will
        # generate ~100 more each) while replica 1's are near-complete.
        snapshots = [
            snap(0, used=400, running=((200, 2), (200, 2))),
            snap(1, used=400, running=((200, 99), (200, 99))),
        ]
        assert router.decide(SPEC, snapshots) == 1

    def test_counts_waiting_queue_demand(self):
        router = MemoryAwareRouter(default_length=100)
        snapshots = [snap(0, waiting=(50, 50, 50)), snap(1, waiting=(50,))]
        assert router.decide(SPEC, snapshots) == 1

    def test_empty_replica_has_full_headroom(self):
        router = MemoryAwareRouter()
        snapshots = [snap(0, used=10, running=((10, 1),)), snap(1)]
        assert router.predicted_peaks([snapshots[1]]) == [0]
        assert router.decide(SPEC, snapshots) == 1

    def test_learns_from_finished_requests(self):
        router = MemoryAwareRouter(default_length=1000)
        snapshot = snap(0, used=100, running=((100, 10),))
        pessimistic = router.predicted_peaks([snapshot])[0]
        # Observing short completions shrinks the predicted remaining length.
        for _ in range(50):
            request = grown_request(make_spec(output_length=16), 16)
            router.on_request_finished(request, time=1.0)
        optimistic = router.predicted_peaks([snapshot])[0]
        assert optimistic < pessimistic

    def test_cached_history_table_follows_the_window(self):
        router = MemoryAwareRouter(default_length=1000)
        snapshot = snap(0, used=100, running=((100, 10),), waiting=(50,))
        cold = router.predicted_peaks([snapshot])[0]
        request = grown_request(make_spec(output_length=16), 16)
        router.on_request_finished(request, time=1.0)
        assert router.predicted_peaks([snapshot])[0] != cold
        router.on_run_start()
        assert router.predicted_peaks([snapshot])[0] == cold

    def test_clamps_prediction_to_request_caps(self):
        router = MemoryAwareRouter(default_length=2048)
        base = dict(
            replica_id=0,
            token_capacity=1000,
            used_tokens=200,
            current_tokens=(100, 100),
            generated_tokens=(4, 4),
            num_running=2,
        )
        uncapped = ReplicaView(**base, remaining_cap_tokens=(UNCAPPED, UNCAPPED))
        capped = ReplicaView(**base, remaining_cap_tokens=(8, 8))
        # Cold-start default of 2048 predicted tokens cannot exceed what the
        # requests' max_new_tokens budgets physically allow.
        assert router.predicted_peaks([capped, uncapped])[0] == 216  # 200 + 2*8
        assert router.predicted_peaks([capped, uncapped])[1] > 1000

    def test_history_cleared_on_run_start(self):
        router = MemoryAwareRouter(default_length=1000)
        request = grown_request(make_spec(output_length=16), 16)
        router.on_request_finished(request, time=1.0)
        assert router.history.snapshot().tolist() == [16]
        router.on_run_start()
        assert router.history.is_empty

    def test_tie_breaks_to_lowest_id(self):
        router = MemoryAwareRouter()
        snapshots = [snap(1), snap(0)]
        assert router.decide(SPEC, snapshots) == 0

    def test_excludes_saturated(self):
        router = MemoryAwareRouter()
        snapshots = [snap(0, capacity=100, used=100), snap(1, capacity=100, used=90)]
        assert router.decide(SPEC, snapshots) == 1


class TestOneRoutingPass:
    """One decision is one prediction, and one Eq. 2–4 call per busy replica and none per idle one."""

    @pytest.fixture()
    def calls(self, monkeypatch) -> Counter:
        calls: Counter = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        # The kernel is looked up in the routing module.
        monkeypatch.setattr(routing, "peak_future_memory", counted("kernel", routing.peak_future_memory))
        monkeypatch.setattr(
            MemoryAwareRouter, "_expected_remaining", counted("prediction", MemoryAwareRouter._expected_remaining)
        )
        return calls

    #: Three busy replicas and one idle one.
    BUSY = (
        snap(0, used=400, running=((200, 2), (200, 2)), waiting=(30,)),
        snap(1),
        snap(2, used=150, running=((150, 40),)),
        snap(3, used=600, running=((300, 9), (200, 1), (100, 0))),
    )

    def test_memory_aware_decision(self, calls):
        assert MemoryAwareRouter(default_length=100).decide(SPEC, self.BUSY) == 1
        assert calls == {"kernel": 3, "prediction": 1}

    def test_session_fallback(self, calls):
        router = create_router("session-affinity")
        turn = make_spec(request_id="s0/t0", session_id="s0", session_stage=0, session_stages=2)
        busy = [view for view in self.BUSY if view.current_tokens]
        assert router.decide(turn, busy) == 2
        assert calls == {"kernel": 3, "prediction": 1}
        # The home is viable on the next turn: no scoring at all.
        assert router.decide(turn, busy) == 2
        assert calls == {"kernel": 3, "prediction": 1}

    def test_fleet_demand_forecast(self, calls):
        policy = PredictivePolicy(default_length=100)
        demand = policy.predicted_fleet_demand_tokens(FleetView(time=0.0, snapshots=self.BUSY))
        assert calls == {"kernel": 3, "prediction": 1}
        forecaster = MemoryAwareRouter(default_length=100)
        assert demand == sum(forecaster.predicted_peaks([view])[0] for view in self.BUSY)

    @pytest.mark.parametrize("name", ["memory-aware", "session-affinity"])
    def test_idle_fleet_makes_no_numpy_call(self, calls, name):
        router = create_router(name)
        turn = make_spec(request_id="s0/t0", session_id="s0", session_stage=0, session_stages=2)
        for spec in (SPEC, turn):
            assert router.decide(spec, [snap(4), snap(2), snap(9)]) == 2
        assert router.predicted_peaks([snap(4), snap(2)]) == [0, 0]
        assert router.predicted_peaks([]) == []
        assert not calls


class TestDecideAPI:
    @pytest.mark.parametrize("name", available_routers())
    def test_builtins_return_an_id_among_non_contiguous_views(self, name):
        router = create_router(name)
        # Ids 3/7/12 are opaque keys, not list indices; a session turn
        # exercises session-affinity's own path as well as the fallback.
        turn = make_spec(request_id="s0/t0", session_id="s0", session_stage=0, session_stages=2)
        views = [snap(3), snap(7, used=500), snap(12, used=100)]
        for spec in (SPEC, turn):
            chosen = router.decide(spec, views)
            assert isinstance(chosen, int)
            assert chosen in (3, 7, 12)

    @pytest.mark.parametrize("name", available_routers())
    def test_routes_into_a_fully_saturated_fleet(self, name):
        # Routers only place: a full fleet still gets a placement, and the
        # replica's scheduler keeps the request queued until it fits.
        router = create_router(name)
        saturated = [snap(i, capacity=10, used=10) for i in (2, 5)]
        assert router.decide(SPEC, saturated) in (2, 5)
        # One open replica wins over the saturated one.
        assert router.decide(SPEC, [snap(2, capacity=10, used=10), snap(5)]) == 5

    @pytest.mark.parametrize("name", available_routers())
    def test_zero_views_raise(self, name):
        turn = make_spec(request_id="s0/t0", session_id="s0", session_stage=0, session_stages=2)
        for spec in (SPEC, turn):
            with pytest.raises(ValueError, match="zero replicas"):
                create_router(name).decide(spec, [])

    @pytest.mark.parametrize(
        ("name", "described"),
        [
            ("round-robin", "round-robin"),
            ("least-outstanding", "least-outstanding"),
            ("least-kv-load", "least-kv-load"),
            ("memory-aware", "memory-aware (window=1000)"),
            ("session-affinity", "session-affinity (window=1000)"),
        ],
    )
    def test_describe_names_the_policy(self, name, described):
        assert create_router(name).describe() == described

    def test_saturated_fleet_still_homes_the_session(self):
        router = create_router("session-affinity")
        turn = make_spec(request_id="s0/t0", session_id="s0", session_stage=0, session_stages=2)
        assert router.decide(turn, [snap(4, capacity=10, used=10)]) == 4
        # The next turn goes home, though memory-aware placement alone would pick replica 2.
        next_turn = dataclasses.replace(turn, request_id="s0/t1", session_stage=1)
        assert router.decide(next_turn, [snap(2), snap(4, used=500)]) == 4

    def test_router_without_decide_cannot_be_instantiated(self):
        class EmptyRouter(Router):
            name = "empty"

        with pytest.raises(TypeError, match="decide"):
            EmptyRouter()


class TestReplicaViewNormalised:
    def test_headroom_properties_under_mixed_capacities(self):
        big = snap(0, capacity=8000, used=4000, waiting=(400,))
        small = snap(1, capacity=800, used=200, waiting=(100,))
        assert big.headroom_tokens == 3600
        assert small.headroom_tokens == 500
        assert big.headroom_fraction == pytest.approx(0.45)
        assert small.headroom_fraction == pytest.approx(0.625)
        # Absolute headroom favours the big replica; normalised the small one.
        assert big.headroom_tokens > small.headroom_tokens
        assert big.headroom_fraction < small.headroom_fraction
        assert big.load_fraction == pytest.approx(0.55)
        assert small.load_fraction == pytest.approx(0.375)

    def test_headroom_fraction_negative_when_oversubscribed(self):
        view = snap(0, capacity=100, used=80, waiting=(40,))
        assert view.headroom_tokens == -20
        assert view.headroom_fraction == pytest.approx(-0.2)

    def test_speed_factor_validated(self):
        with pytest.raises(ValueError, match="speed_factor"):
            ReplicaView(replica_id=0, token_capacity=10, used_tokens=0, speed_factor=0.0)

    def test_least_kv_load_compares_fractions_not_tokens(self):
        router = LeastKVLoadRouter()
        # The big replica holds more absolute tokens but is relatively emptier.
        views = [
            snap(0, capacity=8000, used=3000),   # 37.5% load
            snap(1, capacity=800, used=400),     # 50% load
        ]
        assert router.decide(SPEC, views) == 0

    def test_memory_aware_prefers_relative_headroom_on_mixed_fleet(self):
        router = MemoryAwareRouter(default_length=8)
        views = [
            # Big replica: large absolute headroom but relatively fuller.
            snap(0, capacity=8000, used=6400, running=((6400, 100),)),
            # Small replica: less absolute headroom, far more relative slack.
            snap(1, capacity=2000, used=200, running=((200, 100),)),
        ]
        big_peak, small_peak = router.predicted_peaks(views)
        assert views[0].token_capacity - big_peak > views[1].token_capacity - small_peak - 4000
        assert router.decide(SPEC, views) == 1

    def test_memory_aware_speed_weighting_breaks_fraction_ties(self):
        router = MemoryAwareRouter(default_length=8)

        def view(replica_id, speed):
            return ReplicaView(
                replica_id=replica_id,
                token_capacity=1000,
                used_tokens=100,
                current_tokens=(100,),
                generated_tokens=(50,),
                remaining_cap_tokens=(UNCAPPED,),
                num_running=1,
                speed_factor=speed,
            )

        # Identical normalised headroom; the faster replica wins.
        assert router.decide(SPEC, [view(0, 0.5), view(1, 1.0)]) == 1
        # Equal speeds fall back to the lowest-id tie-break.
        assert router.decide(SPEC, [view(0, 1.0), view(1, 1.0)]) == 0

    def test_memory_aware_charges_placement_footprint(self):
        router = MemoryAwareRouter(default_length=8)
        big_spec = make_spec(request_id="big", input_length=600, max_new_tokens=700)
        views = [
            # Relatively fuller, but the only replica the request fits in.
            snap(0, capacity=8000, used=4000, running=((4000, 100),)),
            # Relatively emptier, but a 600-token prompt oversubscribes it.
            snap(1, capacity=700, used=100, running=((100, 100),)),
        ]
        assert router.decide(big_spec, views) == 0


class TestRegistry:
    def test_known_names(self):
        assert available_routers() == [
            "least-kv-load",
            "least-outstanding",
            "memory-aware",
            "round-robin",
            "session-affinity",
        ]

    @pytest.mark.parametrize(
        "name",
        ["round-robin", "least-outstanding", "least-kv-load", "memory-aware", "session-affinity"],
    )
    def test_create_by_name(self, name):
        assert create_router(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown router"):
            create_router("random")

    def test_kwargs_forwarded(self):
        router = create_router("memory-aware", default_length=10)
        assert router.history.snapshot().tolist() == [10]

    def test_unknown_kwargs_rejected_with_accepted_list(self):
        with pytest.raises(TypeError, match="accepted") as excinfo:
            create_router("memory-aware", default_len=10)
        assert "'default_len'" in str(excinfo.value)
        assert "default_length" in str(excinfo.value)
        assert "did you mean 'default_length'" in str(excinfo.value)
