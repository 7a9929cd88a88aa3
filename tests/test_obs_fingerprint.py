"""Tracing must never change simulation results.

The observability layer's hard contract: attaching any tracer — or none —
leaves every fingerprinted metric bit-identical.  The committed
``BENCH_core.json`` digests double as pre-PR snapshots: the default
:class:`~repro.obs.tracer.NullTracer` run must still hash to exactly the
bytes recorded before the tracing subsystem existed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.analysis.perf import BENCH_PATH, SCENARIOS, cluster_fingerprint, run_fingerprint
from repro.obs.events import EVENT_TAXONOMY, REQUEST_EVICTED
from repro.obs.tracer import NullTracer, RingTracer
from repro.schedulers.conservative import ConservativeScheduler
from repro.serving.autoscale import Autoscaler
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import FaultPlan, ReplicaCrash, Straggler
from repro.serving.server import ServingSimulator
from repro.serving.throttle import OverloadThrottle
from repro.workloads.arrivals import assign_poisson_arrivals
from repro.workloads.interactions import generate_interactions
from repro.workloads.spec import Workload
from tests.conftest import TINY_CAPACITY, make_workload
from tests.helpers import assert_fingerprint_neutral
from tests.test_serving_autoscale import SchedulePolicy


def server_fingerprint(platform, tracer):
    sim = ServingSimulator(
        platform=platform,
        scheduler=ConservativeScheduler(),
        token_capacity_override=TINY_CAPACITY,
        tracer=tracer,
    )
    return run_fingerprint(sim.run_closed_loop(make_workload(num_requests=16), num_clients=4))


def fleet_fingerprint(platform, tracer):
    cluster = ClusterSimulator(
        platform=platform,
        num_replicas=2,
        router="least-outstanding",
        scheduler_name="conservative",
        token_capacity_override=TINY_CAPACITY,
        tracer=tracer,
    )
    return cluster_fingerprint(cluster.run_closed_loop(make_workload(num_requests=16), num_clients=4))


class TestTracerNeutrality:
    def test_server_fingerprint_is_tracer_independent(self, platform_7b):
        untraced = server_fingerprint(platform_7b, None)
        for tracer in (NullTracer(), RingTracer()):
            assert_fingerprint_neutral(
                lambda: server_fingerprint(platform_7b, tracer),
                untraced,
                label=type(tracer).__name__,
            )

    def test_cluster_fingerprint_is_tracer_independent(self, platform_7b):
        untraced = fleet_fingerprint(platform_7b, None)
        for tracer in (NullTracer(), RingTracer()):
            assert_fingerprint_neutral(
                lambda: fleet_fingerprint(platform_7b, tracer),
                untraced,
                label=type(tracer).__name__,
            )


class TestCommittedSnapshots:
    @pytest.fixture(scope="class")
    def committed(self) -> dict:
        if not BENCH_PATH.exists():
            pytest.skip("no committed BENCH_core.json in this checkout")
        return json.loads(BENCH_PATH.read_text())["scenarios"]

    def test_fig12_matches_pre_tracing_snapshot(self, committed):
        # The fastest committed scenario, re-run with the default NullTracer:
        # its digest must equal the snapshot taken before tracing landed.
        scenario = next(s for s in SCENARIOS if s.name == "fig12_heterogeneous")
        _, digest, _ = scenario.run(True)
        assert_fingerprint_neutral(
            digest, committed["fig12_heterogeneous"]["fingerprint"], label="tracing"
        )

    def test_fig12_traced_run_matches_snapshot_too(self, committed):
        scenario = next(s for s in SCENARIOS if s.name == "fig12_heterogeneous")
        _, digest, _ = scenario.run(True, tracer=RingTracer(capacity=1024))
        assert_fingerprint_neutral(
            digest, committed["fig12_heterogeneous"]["fingerprint"], label="RingTracer"
        )


def _traced_stream_digest(run) -> str:
    """sha256 prefix of the JSONL bytes of every event ``run(tracer)`` emits.

    Each line is the compact JSON of one event, so the digest pins the event
    order, every value and the key order of every ``attrs`` payload.
    """
    ring = RingTracer(capacity=1_000_000)
    run(ring)
    assert ring.dropped == 0
    lines = [json.dumps(event.to_json(), separators=(",", ":")) for event in ring.events]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _fleet(platform, tracer, **kwargs) -> ClusterSimulator:
    return ClusterSimulator(
        platform=platform,
        router=kwargs.pop("router", "least-outstanding"),
        scheduler_name="conservative",
        token_capacity_override=kwargs.pop("capacity", TINY_CAPACITY),
        tracer=tracer,
        **kwargs,
    )


def _poisson_load(num_requests: int, rate: float, input_length: int = 32, output_length: int = 24):
    workload = make_workload(
        num_requests=num_requests,
        input_length=input_length,
        output_length=output_length,
        max_new_tokens=output_length,
    )
    return assign_poisson_arrivals(workload, rate, seed=3)


def _autoscaled(platform, tracer) -> None:
    # Scale 2 -> 4 with a warm-up, cancel one warming launch, activate the
    # other, then shrink to one: a busy replica drains, an idle one retires.
    autoscaler = Autoscaler(
        SchedulePolicy([(0.25, 4), (0.5, 3), (1.0, 1)]),
        interval=0.25,
        min_replicas=1,
        max_replicas=4,
        warmup_delay=0.4,
    )
    _fleet(platform, tracer, num_replicas=2, autoscaler=autoscaler).run_open_loop(
        _poisson_load(60, rate=15.0)
    )


def _faults_with_retries(platform, tracer) -> None:
    # A crash with a replacement, a straggler window, the retry policy
    # re-dispatching what the crash aborts, and a crash aimed at a replica
    # that never exists.
    plan = FaultPlan(
        crashes=[ReplicaCrash(time=0.2, replica=0), ReplicaCrash(time=0.3, replica=9)],
        stragglers=[Straggler(start=0.05, duration=0.3, replica=2, slowdown=3.0)],
        seed=5,
    )
    burst = make_workload(num_requests=24, input_length=256, output_length=64, max_new_tokens=64)
    burst = Workload(burst.name, [replace(spec, arrival_time=0.0) for spec in burst.requests])
    _fleet(platform, tracer, num_replicas=4, capacity=1024, faults=plan).run_open_loop(burst)


def _faults_without_retries(platform, tracer) -> None:
    # Replicas 0 and 1 crash: their work is rejected, arrivals wait for the
    # warming replacements, which crash too; the rest find no replica.
    plan = FaultPlan(
        crashes=[ReplicaCrash(time=0.2, replica=i) for i in range(2)]
        + [ReplicaCrash(time=0.3, replica=i) for i in (2, 3)],
        retry_policy=None,
        replacement_warmup=0.3,
        seed=5,
    )
    _fleet(platform, tracer, num_replicas=2, faults=plan).run_open_loop(_poisson_load(24, rate=40.0))


def _throttled_sessions(platform, tracer) -> None:
    # Session-affinity over a prefix cache; the throttle and a crash with no
    # retry both abandon sessions.
    sessions = generate_interactions(
        12,
        seed=3,
        mean_prompt_tokens=64.0,
        mean_output_tokens=24.0,
        max_turns=4,
        think_time=0.05,
        start_spacing=0.02,
        num_users=3,
    )
    plan = FaultPlan(crashes=[ReplicaCrash(time=0.3, replica=0)], retry_policy=None, seed=1)
    _fleet(
        platform,
        tracer,
        num_replicas=2,
        router="session-affinity",
        prefix_cache_tokens=512,
        throttle=OverloadThrottle(user_rpm=4, window_seconds=1.0),
        faults=plan,
    ).run_sessions(sessions)


class TestTraceStreams:
    """The complete event streams of small fleets that reach every fleet event.

    Between them the runs emit every replica transition, fault-log entry,
    retry, deferral, reject and throttle the fleet loop records.  The digests
    were taken before the fleet bookkeeping was consolidated, so any change
    to the order of events or to the key order of their payloads shows up
    here.  The two fault streams were re-pinned when preemption was deleted,
    from the older code with only their preemptions removed.
    """

    #: Event names no stream emits.  No fleet here runs a pool out of decode
    #: room, so none evicts; the engine-level suites drive evictions.
    NOT_EMITTED = {REQUEST_EVICTED}

    STREAMS = {
        "autoscaled": (_autoscaled, "cbe68cb76283a9c3"),
        "faults_with_retries": (_faults_with_retries, "bbe2d2a51ba4409e"),
        "faults_without_retries": (_faults_without_retries, "4161249a012f0734"),
        "throttled_sessions": (_throttled_sessions, "20e3a9390e750e43"),
    }

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_stream_matches_snapshot(self, platform_7b, name):
        run, expected = self.STREAMS[name]
        assert _traced_stream_digest(lambda tracer: run(platform_7b, tracer)) == expected

    def test_streams_emit_every_event_name(self, platform_7b):
        emitted = set()
        for run, _ in self.STREAMS.values():
            ring = RingTracer(capacity=1_000_000)
            run(platform_7b, ring)
            emitted.update(event.name for event in ring.events)
        assert emitted == set(EVENT_TAXONOMY) - self.NOT_EMITTED
