"""Tracer backends, lifecycle-event emission, and jump self-profiling."""

from __future__ import annotations

import pytest

from repro.engine.engine import JumpStats
from repro.obs import events as obs
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RingTracer,
    TraceEvent,
    read_jsonl_trace,
)
from repro.schedulers.conservative import ConservativeScheduler
from repro.serving.server import ServingSimulator
from tests.conftest import TINY_CAPACITY, make_workload


def traced_run(platform, tracer, fast_path=True, num_requests=12, num_clients=4):
    sim = ServingSimulator(
        platform=platform,
        scheduler=ConservativeScheduler(),
        token_capacity_override=TINY_CAPACITY,
        fast_path=fast_path,
        tracer=tracer,
    )
    result = sim.run_closed_loop(make_workload(num_requests=num_requests), num_clients=num_clients)
    assert result.completed
    return result


class TestNullTracer:
    def test_disabled_and_emit_is_noop(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.emit(TraceEvent("request.submit", 0.0))  # must not raise
        tracer.close()

    def test_singleton_is_default(self, platform_7b):
        sim = ServingSimulator(
            platform=platform_7b,
            scheduler=ConservativeScheduler(),
            token_capacity_override=TINY_CAPACITY,
        )
        assert sim.tracer is NULL_TRACER
        assert sim.engine.tracer is NULL_TRACER


class TestRingTracer:
    def test_bounded_eviction_keeps_newest(self):
        ring = RingTracer(capacity=4)
        for i in range(10):
            ring.emit(TraceEvent("e", float(i)))
        assert ring.emitted == 10
        assert ring.dropped == 6
        assert [event.time for event in ring.events] == [6.0, 7.0, 8.0, 9.0]

    def test_empty_ring_is_still_installed(self, platform_7b):
        # RingTracer defines __len__, so an empty ring is falsy; constructors
        # must test `is not None`, not truthiness, or the tracer silently
        # vanishes.  This is the regression test for that exact bug.
        ring = RingTracer()
        sim = ServingSimulator(
            platform=platform_7b,
            scheduler=ConservativeScheduler(),
            token_capacity_override=TINY_CAPACITY,
            tracer=ring,
        )
        assert sim.tracer is ring
        assert sim.engine.tracer is ring


class TestJsonlTracer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [
            TraceEvent("request.submit", 0.5, request_id="r0", attrs={"prompt_tokens": 32}),
            TraceEvent("engine.jump", 1.25, replica=2, duration=3.5, attrs={"steps": 7}),
            TraceEvent("request.finished", 9.0, request_id="r0"),
        ]
        with JsonlTracer(path) as tracer:
            for event in events:
                tracer.emit(event)
        assert read_jsonl_trace(path) == events

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "time": 0.0}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            read_jsonl_trace(path)

    def test_every_emit_is_flushed_to_disk(self, tmp_path):
        # No close() needed to observe emitted events: a run that dies
        # mid-simulation must still leave every event it got to emit.
        path = tmp_path / "flush.jsonl"
        tracer = JsonlTracer(path)
        tracer.emit(TraceEvent("request.submit", 0.0, request_id="r0"))
        tracer.emit(TraceEvent("request.finished", 1.0, request_id="r0"))
        assert len(read_jsonl_trace(path)) == 2
        tracer.close()

    def test_context_manager_closes_on_exception(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError, match="simulated failure"):
            with JsonlTracer(path) as tracer:
                tracer.emit(TraceEvent("request.submit", 0.0, request_id="r0"))
                raise RuntimeError("simulated failure")
        assert tracer._file is None  # closed despite the exception
        events = read_jsonl_trace(path)  # and the file holds whole records
        assert [event.name for event in events] == ["request.submit"]

    def test_unserialisable_event_leaves_no_partial_line(self, tmp_path):
        # The line is serialised in full before any write: a bad attr must
        # not truncate the file mid-record.
        path = tmp_path / "atomic.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit(TraceEvent("request.submit", 0.0, request_id="r0"))
            with pytest.raises(TypeError):
                tracer.emit(TraceEvent("bad", 1.0, attrs={"payload": object()}))
            tracer.emit(TraceEvent("request.finished", 2.0, request_id="r0"))
        events = read_jsonl_trace(path)  # parses cleanly: no half-written line
        assert [event.name for event in events] == ["request.submit", "request.finished"]

    def test_flush_before_open_is_noop(self, tmp_path):
        tracer = JsonlTracer(tmp_path / "never.jsonl")
        tracer.flush()  # must not create the file or raise
        tracer.close()
        assert not (tmp_path / "never.jsonl").exists()


class TestLifecycleEvents:
    def test_request_lifecycle_ordering(self, platform_7b):
        ring = RingTracer()
        traced_run(platform_7b, ring)
        per_request: dict[str, list[str]] = {}
        for event in ring.events:
            if event.request_id is not None:
                per_request.setdefault(event.request_id, []).append(event.name)
        assert per_request
        for names in per_request.values():
            # Submission precedes queueing precedes admission precedes tokens.
            assert names.index(obs.REQUEST_SUBMIT) < names.index(obs.REQUEST_QUEUED)
            assert names.index(obs.REQUEST_QUEUED) < names.index(obs.REQUEST_ADMITTED)
            assert names.index(obs.REQUEST_ADMITTED) < names.index(obs.REQUEST_FIRST_TOKEN)
            assert names[-1] == obs.REQUEST_FINISHED

    def test_timestamps_are_monotonic_per_request(self, platform_7b):
        # The global stream is not time-sorted (span events carry their start
        # time but are emitted once their duration is known), but each
        # request's lifecycle must advance monotonically.
        ring = RingTracer()
        traced_run(platform_7b, ring)
        per_request: dict[str, list[float]] = {}
        for event in ring.events:
            if event.request_id is not None:
                per_request.setdefault(event.request_id, []).append(event.time)
        assert per_request
        for times in per_request.values():
            assert times == sorted(times)

    def test_jump_events_only_on_fast_path(self, platform_7b):
        fast_ring = RingTracer()
        traced_run(platform_7b, fast_ring, fast_path=True)
        names = {event.name for event in fast_ring.events}
        assert obs.ENGINE_JUMP in names

        loop_ring = RingTracer()
        traced_run(platform_7b, loop_ring, fast_path=False)
        loop_names = {event.name for event in loop_ring.events}
        assert obs.ENGINE_JUMP not in loop_names
        assert obs.ENGINE_STEP in loop_names

    def test_jump_event_attrs_carry_source_and_steps(self, platform_7b):
        ring = RingTracer()
        traced_run(platform_7b, ring)
        jumps = [event for event in ring.events if event.name == obs.ENGINE_JUMP]
        assert jumps
        for event in jumps:
            assert event.attrs["source"] in ("silent", "saturated")
            assert event.attrs["steps"] >= 1
            assert event.duration > 0


class TestSourceTags:
    def test_step_result_source_is_loop(self, platform_7b):
        ring = RingTracer()
        traced_run(platform_7b, ring)
        steps = [event for event in ring.events if event.name == obs.ENGINE_STEP]
        assert steps
        assert all(event.attrs["source"] == "loop" for event in steps)

    def test_jump_result_source_tags(self, platform_7b):
        ring = RingTracer()
        result = traced_run(platform_7b, ring, num_requests=24, num_clients=8)
        stats = result.jump_stats
        sources = {event.attrs["source"] for event in ring.events if event.name == obs.ENGINE_JUMP}
        if stats.silent_jumps:
            assert "silent" in sources
        if stats.saturated_jumps:
            assert "saturated" in sources


class TestJumpStats:
    def test_fast_path_run_populates_counters(self, platform_7b):
        result = traced_run(platform_7b, NullTracer(), fast_path=True)
        stats = result.jump_stats
        assert stats.jumps > 0
        assert stats.steps_fused > 0
        assert stats.total_steps == stats.loop_steps + stats.steps_fused
        assert 0.0 < stats.fused_fraction < 1.0

    def test_reference_run_never_jumps(self, platform_7b):
        result = traced_run(platform_7b, NullTracer(), fast_path=False)
        stats = result.jump_stats
        assert stats.jumps == 0
        assert stats.steps_fused == 0
        assert stats.loop_steps > 0
        assert stats.fused_fraction == 0.0

    def test_merge_accumulates_everything(self):
        a = JumpStats(loop_steps=3, silent_jumps=1, steps_fused=10)
        a.note_fallback("silent:no-window")
        b = JumpStats(loop_steps=2, saturated_jumps=2, steps_fused=8, scheduler_consults=5)
        b.note_fallback("silent:no-window")
        b.note_fallback("saturated:not-uniform")
        a.merge(b)
        assert a.loop_steps == 5
        assert a.jumps == 3
        assert a.steps_fused == 18
        assert a.scheduler_consults == 5
        assert a.fallback_reasons == {"silent:no-window": 2, "saturated:not-uniform": 1}

    def test_summary_shape(self):
        summary = JumpStats().summary()
        assert summary["loop_steps"] == 0
        assert summary["fused_fraction"] == 0.0
        assert summary["fallback_reasons"] == {}
        assert set(summary) == {
            "loop_steps",
            "jumps",
            "steps_fused",
            "silent_jumps",
            "saturated_jumps",
            "scheduler_consults",
            "fused_fraction",
            "mean_steps_per_jump",
            "fallback_reasons",
        }
