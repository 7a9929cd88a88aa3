"""Tracer implementations: null (default), bounded ring, and JSONL stream.

A tracer receives :class:`TraceEvent` records from the simulators.  Emission
sites throughout the stack are guarded by the tracer's :attr:`~Tracer.enabled`
flag (hot paths cache it), so the default :class:`NullTracer` costs one
attribute read per *eventful* iteration and nothing on fused macro-steps —
simulation results are byte-identical whether or not a tracer is attached.

Pick an implementation by what you can afford to keep:

* :class:`NullTracer` — nothing; the default everywhere.
* :class:`RingTracer` — the last ``capacity`` events in memory, evicting the
  oldest first.  Constant memory, so it can stay attached to very long runs
  (the ROADMAP's million-request streaming scenarios) as a flight recorder.
* :class:`JsonlTracer` — every event appended to a JSON-Lines file as it is
  emitted.  Unbounded but durable; the input format of
  ``tools/trace_report.py`` and the Chrome-trace exporter.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped observation emitted by a simulator layer.

    Attributes:
        name: taxonomy name (see :mod:`repro.obs.events`), dot-separated
            ``subsystem.what`` — e.g. ``"request.admitted"``.
        time: simulation clock at the observation, in seconds.
        request_id: the request the event concerns, when it concerns one.
        replica: fleet replica index the event occurred on (``None`` for
            fleet-level events and single-engine runs, which use replica 0
            at export time).
        duration: span length in simulation seconds for events that cover an
            interval (engine steps and jumps); 0.0 for instants.
        attrs: small JSON-serialisable payload of event-specific fields
            (tenant ids, reject reasons, fused step counts, router signals).
    """

    name: str
    time: float
    request_id: str | None = None
    replica: int | None = None
    duration: float = 0.0
    attrs: Mapping = field(default_factory=dict)

    def to_json(self) -> dict:
        """Flat JSON-serialisable form (the JSONL line payload)."""
        record: dict = {"name": self.name, "time": self.time}
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.replica is not None:
            record["replica"] = self.replica
        if self.duration:
            record["duration"] = self.duration
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_json(cls, record: Mapping) -> "TraceEvent":
        """Rebuild an event from its :meth:`to_json` form."""
        return cls(
            name=record["name"],
            time=record["time"],
            request_id=record.get("request_id"),
            replica=record.get("replica"),
            duration=record.get("duration", 0.0),
            attrs=record.get("attrs", {}),
        )


class Tracer:
    """Interface every tracer implements (and the base of the real ones).

    Emission sites check :attr:`enabled` before *constructing* an event, so a
    disabled tracer never allocates; implementations that record must leave
    ``enabled = True``.  ``close()`` releases any resources and is idempotent.
    """

    #: whether emission sites should build and deliver events at all.
    enabled: bool = True

    def emit(self, event: TraceEvent) -> None:
        """Record one event; must not mutate any simulation state."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (flush files); safe to call more than once."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTracer(Tracer):
    """The zero-overhead default: drops everything, reports ``enabled=False``.

    Every simulator parameter defaulting to "no tracing" resolves to the
    module-level :data:`NULL_TRACER` singleton, so identity comparison and
    the ``enabled`` guard are both valid ways to skip work.
    """

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        """Drop the event (emission sites normally never get this far)."""


#: Shared no-op tracer instance used as the default everywhere.
NULL_TRACER = NullTracer()


class RingTracer(Tracer):
    """Bounded in-memory tracer keeping the most recent ``capacity`` events.

    Args:
        capacity: maximum events retained; older events are evicted
            oldest-first once the ring is full (:attr:`dropped` counts them).
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        #: events evicted so far to honour the capacity bound.
        self.dropped = 0
        #: events ever emitted (retained + dropped).
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        """Append the event, evicting the oldest when at capacity."""
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.emitted += 1

    @property
    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._ring)


class JsonlTracer(Tracer):
    """Streaming tracer appending one JSON object per event to a file.

    The file is opened lazily on the first emission (so constructing a tracer
    never touches the filesystem).  Each event is serialised to a complete
    line *before* anything is written, delivered in a single ``write``, and
    flushed immediately — so a simulation that dies mid-run (or a chaos
    experiment that crashes on purpose) leaves a trace of whole records, never
    a truncated half-line.  Use the tracer as a context manager to guarantee
    the file is closed even when the traced run raises::

        with JsonlTracer("run.jsonl") as tracer:
            simulator = ClusterSimulator(..., tracer=tracer)
            simulator.run(...)

    Lines are self-contained JSON objects in emission order — the interchange
    format of :func:`read_jsonl_trace`, ``tools/trace_report.py``, and
    :func:`repro.obs.export.export_chrome_trace`.

    Args:
        path: output file; parent directories are created as needed.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: IO[str] | None = None
        #: events written so far.
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        """Serialise and append one event as one atomic, flushed line."""
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w")
        # Serialise fully before touching the file: a failing to_json/dumps
        # (e.g. a non-serialisable attr) must not leave a partial record.
        line = json.dumps(event.to_json(), separators=(",", ":")) + "\n"
        self._file.write(line)
        self._file.flush()
        self.emitted += 1

    def flush(self) -> None:
        """Push buffered lines to disk without closing (no-op when unopened)."""
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        """Flush and close the output file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None


def read_jsonl_trace(path: str | Path) -> list[TraceEvent]:
    """Load a :class:`JsonlTracer` output file back into events.

    Blank lines are ignored; malformed lines raise ``ValueError`` with the
    line number so truncated traces fail loudly rather than silently.
    """
    events: list[TraceEvent] = []
    with Path(path).open() as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_json(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as error:
                raise ValueError(f"{path}:{number}: malformed trace line ({error})") from error
    return events


def iter_events(source: Iterable[TraceEvent] | str | Path) -> list[TraceEvent]:
    """Normalise an exporter input: a path loads JSONL, an iterable is listed."""
    if isinstance(source, (str, Path)):
        return read_jsonl_trace(source)
    return list(source)
