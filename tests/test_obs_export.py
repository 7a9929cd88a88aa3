"""Chrome trace export and request-phase derivation."""

from __future__ import annotations

import json

from repro.obs import events as obs
from repro.obs.export import (
    FLEET_PID,
    chrome_trace,
    derive_request_phases,
    export_chrome_trace,
)
from repro.obs.tracer import RingTracer, TraceEvent
from repro.schedulers.conservative import ConservativeScheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.server import ServingSimulator
from tests.conftest import TINY_CAPACITY, make_workload


def server_trace(platform) -> list[TraceEvent]:
    ring = RingTracer()
    sim = ServingSimulator(
        platform=platform,
        scheduler=ConservativeScheduler(),
        token_capacity_override=TINY_CAPACITY,
        tracer=ring,
    )
    result = sim.run_closed_loop(make_workload(num_requests=12), num_clients=4)
    assert result.completed
    return ring.events


def cluster_trace(platform, num_replicas=3) -> list[TraceEvent]:
    ring = RingTracer()
    cluster = ClusterSimulator(
        platform=platform,
        num_replicas=num_replicas,
        router="round-robin",
        scheduler_name="conservative",
        token_capacity_override=TINY_CAPACITY,
        tracer=ring,
    )
    result = cluster.run_closed_loop(make_workload(num_requests=18), num_clients=6)
    assert result.completed
    return ring.events


class TestChromeTrace:
    def test_events_are_valid_trace_event_json(self, platform_7b, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(server_trace(platform_7b), path)
        data = json.load(open(path))
        events = data["traceEvents"]
        assert events
        for event in events:
            assert "ph" in event and "pid" in event
            if event["ph"] != "M":
                assert "ts" in event
        phases = {event["ph"] for event in events}
        assert {"X", "b", "e", "M"} <= phases

    def test_cluster_gets_one_track_per_replica(self, platform_7b):
        events = chrome_trace(cluster_trace(platform_7b, num_replicas=3))["traceEvents"]
        pids = {event["pid"] for event in events}
        # Fleet-level track plus one process per replica.
        assert pids == {FLEET_PID, 1, 2, 3}
        metadata_names = {
            (event["pid"], event["args"]["name"])
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert len(metadata_names) == 4

    def test_async_phase_pairs_balance(self, platform_7b):
        events = chrome_trace(server_trace(platform_7b))["traceEvents"]
        begins = sum(1 for e in events if e["ph"] == "b")
        ends = sum(1 for e in events if e["ph"] == "e")
        assert begins == ends > 0

    def test_timestamps_are_microseconds(self, platform_7b):
        raw = server_trace(platform_7b)
        last = max(event.time for event in raw)
        events = chrome_trace(raw)["traceEvents"]
        max_ts = max(event["ts"] for event in events if "ts" in event and event["ph"] != "M")
        assert abs(max_ts - last * 1e6) < 1e6


class TestDeriveRequestPhases:
    def test_full_lifecycle_produces_three_phases(self):
        events = [
            TraceEvent(obs.REQUEST_SUBMIT, 0.0, request_id="r0"),
            TraceEvent(obs.REQUEST_QUEUED, 0.0, request_id="r0"),
            TraceEvent(obs.REQUEST_ADMITTED, 1.0, request_id="r0", replica=2),
            TraceEvent(obs.REQUEST_FIRST_TOKEN, 3.0, request_id="r0"),
            TraceEvent(obs.REQUEST_FINISHED, 7.0, request_id="r0"),
        ]
        phases = derive_request_phases(events)
        assert [(p.name, p.start, p.end, p.complete) for p in phases] == [
            ("queued", 0.0, 1.0, True),
            ("prefill", 1.0, 3.0, True),
            ("decode", 3.0, 7.0, True),
        ]

    def test_eviction_reopens_queued(self):
        events = [
            TraceEvent(obs.REQUEST_QUEUED, 0.0, request_id="r0"),
            TraceEvent(obs.REQUEST_ADMITTED, 1.0, request_id="r0"),
            TraceEvent(obs.REQUEST_EVICTED, 2.0, request_id="r0"),
            TraceEvent(obs.REQUEST_ADMITTED, 4.0, request_id="r0"),
            TraceEvent(obs.REQUEST_FIRST_TOKEN, 5.0, request_id="r0"),
            TraceEvent(obs.REQUEST_FINISHED, 6.0, request_id="r0"),
        ]
        names = [p.name for p in derive_request_phases(events)]
        assert names == ["queued", "prefill", "queued", "prefill", "decode"]

    def test_throttled_request_closes_terminally(self):
        events = [
            TraceEvent(obs.REQUEST_SUBMIT, 0.0, request_id="r0"),
            TraceEvent(obs.REQUEST_THROTTLED, 0.0, request_id="r0"),
        ]
        phases = derive_request_phases(events)
        assert [(p.name, p.complete) for p in phases] == [("queued", True)]

    def test_unclosed_phase_clamps_to_trace_end(self):
        events = [
            TraceEvent(obs.REQUEST_QUEUED, 1.0, request_id="r0"),
            TraceEvent(obs.ENGINE_STEP, 9.0, replica=0),
        ]
        phases = derive_request_phases(events)
        assert len(phases) == 1
        assert phases[0].end == 9.0
        assert not phases[0].complete

    def test_evicted_then_retry_keeps_replica_attribution(self):
        # A hand-off through the fleet's retry marker (a crash sent the
        # queued request back to the router): the retry closes the
        # replica-0 wait and the queued refinement adopts the destination
        # replica without inventing extra spans.
        events = [
            TraceEvent(obs.REQUEST_QUEUED, 0.0, request_id="r0", replica=0),
            TraceEvent(obs.REQUEST_ADMITTED, 1.0, request_id="r0", replica=0),
            TraceEvent(obs.REQUEST_EVICTED, 2.0, request_id="r0", replica=0),
            TraceEvent(obs.REQUEST_RETRY, 3.0, request_id="r0"),
            TraceEvent(obs.REQUEST_QUEUED, 3.0, request_id="r0", replica=1),
            TraceEvent(obs.REQUEST_ADMITTED, 4.0, request_id="r0", replica=1),
            TraceEvent(obs.REQUEST_FINISHED, 5.0, request_id="r0", replica=1),
        ]
        phases = derive_request_phases(events)
        assert [(p.name, p.start, p.end, p.replica) for p in phases] == [
            ("queued", 0.0, 1.0, 0),
            ("prefill", 1.0, 2.0, 0),
            ("queued", 2.0, 3.0, 0),
            ("queued", 3.0, 4.0, 1),
            ("prefill", 4.0, 5.0, 1),
        ]

    def test_queued_during_running_phase_closes_it(self):
        # A re-queue observed while prefill/decode is still open (e.g. a
        # trace missing its evicted marker) must close the running span
        # rather than silently discard it.
        events = [
            TraceEvent(obs.REQUEST_QUEUED, 0.0, request_id="r0", replica=0),
            TraceEvent(obs.REQUEST_ADMITTED, 1.0, request_id="r0", replica=0),
            TraceEvent(obs.REQUEST_QUEUED, 2.0, request_id="r0", replica=0),
            TraceEvent(obs.REQUEST_FINISHED, 3.0, request_id="r0", replica=0),
        ]
        phases = derive_request_phases(events)
        assert [(p.name, p.start, p.end) for p in phases] == [
            ("queued", 0.0, 1.0),
            ("prefill", 1.0, 2.0),
            ("queued", 2.0, 3.0),
        ]

    def test_eviction_without_handoff_still_refines_same_replica(self):
        # Same-replica re-queue after eviction stays one span: the
        # cross-replica split must not trigger when the replica matches
        # or is simply unknown.
        events = [
            TraceEvent(obs.REQUEST_EVICTED, 2.0, request_id="r0", replica=0),
            TraceEvent(obs.REQUEST_QUEUED, 3.0, request_id="r0", replica=0),
            TraceEvent(obs.REQUEST_ADMITTED, 4.0, request_id="r0", replica=0),
            TraceEvent(obs.REQUEST_FINISHED, 5.0, request_id="r0", replica=0),
        ]
        phases = derive_request_phases(events)
        assert [(p.name, p.start, p.end, p.replica) for p in phases] == [
            ("queued", 2.0, 4.0, 0),
            ("prefill", 4.0, 5.0, 0),
        ]

    def test_session_and_prefix_events_render_as_instants(self, platform_7b):
        ring = RingTracer()
        sim = ServingSimulator(
            platform=platform_7b,
            scheduler=ConservativeScheduler(),
            token_capacity_override=TINY_CAPACITY,
            tracer=ring,
            prefix_cache_tokens=TINY_CAPACITY,
        )
        from repro.workloads.interactions import generate_interactions

        result = sim.run_sessions(generate_interactions(6, seed=3, min_turns=2))
        assert result.completed
        session_names = {
            e.name
            for e in ring.events
            if e.name.startswith("session.") or e.name.startswith("prefix.")
        }
        assert obs.SESSION_START in session_names
        assert obs.SESSION_END in session_names
        assert obs.PREFIX_HIT in session_names
        instants = {
            e["name"] for e in chrome_trace(ring.events)["traceEvents"] if e["ph"] == "i"
        }
        assert session_names <= instants

    def test_real_run_phases_cover_all_requests(self, platform_7b):
        events = server_trace(platform_7b)
        phases = derive_request_phases(events)
        finished = {e.request_id for e in events if e.name == obs.REQUEST_FINISHED}
        decoded = {p.request_id for p in phases if p.name == "decode" and p.complete}
        assert decoded == finished
        assert all(p.duration >= 0 for p in phases)
