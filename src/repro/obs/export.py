"""Exporters: Chrome ``trace_event`` JSON and request-phase span derivation.

:func:`chrome_trace` converts a list of :class:`~repro.obs.tracer.TraceEvent`
records (or a JSONL trace file) into the Chrome trace-event format that
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load directly:

* one *process* (``pid``) per replica, named ``replica-N``, plus a ``fleet``
  process for fleet-level events (arrivals, routing, autoscale decisions);
* an ``engine`` thread per replica carrying ``engine.step`` and
  ``engine.jump`` complete-spans (``ph: "X"``), so the timeline shows exactly
  where simulated time went — fused macro-steps render as wide single slices;
* per-request *async* span pairs (``ph: "b"`` / ``"e"``, one id per request)
  for each lifecycle phase — ``queued``, ``prefill``, ``decode`` — derived
  from the lifecycle events by :func:`derive_request_phases`;
* instant events (``ph: "i"``) for decisions and point occurrences
  (routing, rejections, throttles, evictions, autoscale, replica lifecycle).

Timestamps are simulation seconds scaled to microseconds (the trace-event
unit), so one simulated second reads as one millisecond-scale slice in the
UI at default zoom.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.obs import events as ev
from repro.obs.tracer import TraceEvent, iter_events

#: pid used for events not attributed to any replica.
FLEET_PID = 0

#: phases a request moves through, in lifecycle order.
REQUEST_PHASES = ("queued", "prefill", "decode")

#: events rendered as instants on the timeline (everything that is neither a
#: span nor consumed by phase derivation).
_INSTANT_EVENTS = {
    ev.REQUEST_THROTTLED,
    ev.REQUEST_ROUTED,
    ev.REQUEST_REJECTED,
    ev.REQUEST_DEFERRED,
    ev.REQUEST_EVICTED,
    ev.REQUEST_RETRY,
    ev.REPLICA_LAUNCH,
    ev.REPLICA_ACTIVATE,
    ev.REPLICA_DRAIN,
    ev.REPLICA_RETIRE,
    ev.REPLICA_FAIL,
    ev.REPLICA_RECOVER,
    ev.AUTOSCALE_DECISION,
    ev.SESSION_START,
    ev.SESSION_STAGE,
    ev.SESSION_END,
    ev.PREFIX_HIT,
    ev.PREFIX_MISS,
    ev.PREFIX_EVICT,
}


@dataclass(frozen=True)
class RequestPhase:
    """One derived lifecycle interval of one request.

    ``complete`` is ``False`` when the trace ended before the phase closed
    (the end is then clamped to the last event time in the trace).
    """

    request_id: str
    name: str
    start: float
    end: float
    replica: int | None = None
    complete: bool = True

    @property
    def duration(self) -> float:
        """Span length in simulation seconds."""
        return self.end - self.start


def derive_request_phases(source: Iterable[TraceEvent] | str | Path) -> list[RequestPhase]:
    """Reconstruct per-request ``queued``/``prefill``/``decode`` phases.

    Phase boundaries come from the lifecycle events: ``queued`` runs from
    queue entry (or submission, for runs traced only at the simulator level)
    to admission, ``prefill`` from admission to the first token, ``decode``
    from the first token to completion.  An eviction closes the open phase
    and reopens ``queued``, so re-queued requests contribute one interval per
    residency; fault retries do the same but back at the fleet level.
    Phases still open when the trace ends are clamped to the last event time
    and flagged ``complete=False``.
    """
    events = iter_events(source)
    phases: list[RequestPhase] = []
    # request_id -> (phase name, start time, replica)
    open_phase: dict[str, tuple[str, float, int | None]] = {}
    last_time = 0.0
    for event in events:
        last_time = max(last_time, event.time + event.duration)
        rid = event.request_id
        if rid is None:
            continue

        def close(end: float, rid: str = rid) -> None:
            name, start, replica = open_phase.pop(rid)
            phases.append(RequestPhase(rid, name, start, end, replica))

        if event.name in (ev.REQUEST_QUEUED, ev.REQUEST_SUBMIT):
            # A queued event after a submit refines the start; keep the
            # earliest open marker and adopt the replica once known.  An open
            # prefill/decode span at that point is closed rather than
            # silently discarded.
            if rid not in open_phase:
                open_phase[rid] = ("queued", event.time, event.replica)
            elif event.name == ev.REQUEST_QUEUED:
                name, start, _ = open_phase[rid]
                if name != "queued":
                    close(event.time)
                    start = event.time
                open_phase[rid] = ("queued", start, event.replica)
        elif event.name == ev.REQUEST_ADMITTED:
            if rid in open_phase:
                close(event.time)
            open_phase[rid] = ("prefill", event.time, event.replica)
        elif event.name == ev.REQUEST_FIRST_TOKEN:
            if rid in open_phase:
                close(event.time)
            open_phase[rid] = ("decode", event.time, event.replica)
        elif event.name in (ev.REQUEST_EVICTED, ev.REQUEST_RETRY):
            # Eviction re-queues on the same replica; fault retries send the
            # request back to the router (replica unknown until the next
            # request.queued refines it).
            if rid in open_phase:
                close(event.time)
            replica = event.replica if event.name == ev.REQUEST_EVICTED else None
            open_phase[rid] = ("queued", event.time, replica)
        elif event.name in (ev.REQUEST_FINISHED, ev.REQUEST_THROTTLED, ev.REQUEST_REJECTED):
            # Terminal outcomes close whatever was open (a throttled or
            # rejected request closes the queued span opened at submission).
            if rid in open_phase:
                close(event.time)
    for rid, (name, start, replica) in sorted(open_phase.items()):
        phases.append(
            RequestPhase(rid, name, start, max(last_time, start), replica, complete=False)
        )
    return phases


def _us(seconds: float) -> float:
    """Simulation seconds to trace-event microseconds."""
    return seconds * 1e6


def _pid(replica: int | None) -> int:
    """Replica index to trace pid (replicas start at 1; 0 is the fleet)."""
    return FLEET_PID if replica is None else replica + 1


def chrome_trace(source: Iterable[TraceEvent] | str | Path) -> dict:
    """Build a Chrome trace-event document from a trace.

    Returns the top-level dict (``{"traceEvents": [...], ...}``); every
    entry carries the ``ph``/``ts``/``pid`` keys loaders require.
    """
    events = iter_events(source)
    trace_events: list[dict] = []
    pids_seen: set[int] = set()

    def note_pid(pid: int) -> None:
        pids_seen.add(pid)

    for event in events:
        pid = _pid(event.replica)
        note_pid(pid)
        if event.name in (ev.ENGINE_STEP, ev.ENGINE_JUMP):
            trace_events.append(
                {
                    "name": event.attrs.get("source", event.name),
                    "cat": "engine",
                    "ph": "X",
                    "ts": _us(event.time),
                    "dur": _us(event.duration),
                    "pid": pid,
                    "tid": 1,
                    "args": dict(event.attrs),
                }
            )
        elif event.name in _INSTANT_EVENTS:
            args = dict(event.attrs)
            if event.request_id is not None:
                args["request_id"] = event.request_id
            trace_events.append(
                {
                    "name": event.name,
                    "cat": "fleet" if event.replica is None else "engine",
                    "ph": "i",
                    "ts": _us(event.time),
                    "pid": pid,
                    "tid": 0,
                    "s": "p",
                    "args": args,
                }
            )

    for phase in derive_request_phases(events):
        pid = _pid(phase.replica)
        note_pid(pid)
        common = {
            "cat": "request",
            "id": phase.request_id,
            "pid": pid,
            "tid": 0,
            "args": {"request_id": phase.request_id, "complete": phase.complete},
        }
        trace_events.append(
            {"name": phase.name, "ph": "b", "ts": _us(phase.start), **common}
        )
        trace_events.append({"name": phase.name, "ph": "e", "ts": _us(phase.end), **common})

    metadata = []
    for pid in sorted(pids_seen):
        process = "fleet" if pid == FLEET_PID else f"replica-{pid - 1}"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
        if pid != FLEET_PID:
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 1,
                    "args": {"name": "engine"},
                }
            )
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs.export", "time_unit": "simulated-seconds-as-us"},
    }


def write_chrome_trace(source: Iterable[TraceEvent] | str | Path, path: str | Path) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the output path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(source)) + "\n")
    return path


def export_chrome_trace(jsonl_path: str | Path, out_path: str | Path) -> Path:
    """Convert a :class:`~repro.obs.tracer.JsonlTracer` file to a Chrome trace."""
    return write_chrome_trace(jsonl_path, out_path)
