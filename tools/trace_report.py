#!/usr/bin/env python3
"""Trace report CLI: summarize a JSONL trace from :mod:`repro.obs`.

Reads a trace produced by :class:`repro.obs.tracer.JsonlTracer` (for example
via ``python -m repro.analysis.perf --trace run.jsonl``) and prints three
tables:

1. **Per-phase latency breakdown** — queued / prefill / decode durations per
   request, derived with :func:`repro.obs.export.derive_request_phases`
   (count, mean, p50, p99, and how many phases were still open when the
   trace ended).
2. **Jump efficiency** — what fraction of engine iterations were fused into
   ``engine.jump`` macro-steps versus executed one at a time, split by jump
   source (``silent`` vs ``saturated``), per replica and in total.
3. **Per-tenant throttle timeline** — ``request.throttled`` events bucketed
   into fixed windows per ``user_id``, so sustained throttling is visible at
   a glance.
4. **Failure timeline** — per-replica ``replica.fail`` / ``replica.recover``
   spans (crashes are open-ended; straggler windows close on recovery) plus
   a retry histogram by attempt number, from runs with a
   :class:`repro.serving.faults.FaultPlan` attached.

``--chrome OUT.json`` additionally converts the trace to Chrome
``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``) using
:func:`repro.obs.export.export_chrome_trace`.

Run from anywhere inside the checkout::

    python tools/trace_report.py run.jsonl
    python tools/trace_report.py run.jsonl --chrome run.trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path


def repo_root() -> Path:
    """The checkout root (where ``pyproject.toml`` lives)."""
    for parent in (Path(__file__).resolve(), *Path(__file__).resolve().parents):
        if (parent / "pyproject.toml").exists():
            return parent
    raise SystemExit("could not locate the repo root (no pyproject.toml found)")


try:  # pragma: no cover - exercised when the package is not installed
    import repro.obs  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(repo_root() / "src"))

from repro.obs import events as obs
from repro.obs.export import REQUEST_PHASES, derive_request_phases
from repro.obs.tracer import TraceEvent, read_jsonl_trace


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sorted list."""
    index = min(len(values) - 1, max(0, round(fraction * (len(values) - 1))))
    return values[index]


def phase_table(events: list[TraceEvent]) -> list[dict]:
    """Per-phase latency rows: name, count, incomplete, mean/p50/p99 seconds."""
    by_name: dict[str, list[float]] = defaultdict(list)
    open_count: dict[str, int] = defaultdict(int)
    for phase in derive_request_phases(events):
        by_name[phase.name].append(phase.duration)
        if not phase.complete:
            open_count[phase.name] += 1
    rows = []
    for name in REQUEST_PHASES:
        durations = sorted(by_name.get(name, []))
        if not durations:
            continue
        rows.append(
            {
                "phase": name,
                "count": len(durations),
                "incomplete": open_count.get(name, 0),
                "mean_s": round(sum(durations) / len(durations), 4),
                "p50_s": round(_percentile(durations, 0.50), 4),
                "p99_s": round(_percentile(durations, 0.99), 4),
            }
        )
    return rows


def jump_table(events: list[TraceEvent]) -> list[dict]:
    """Per-replica jump-efficiency rows plus a ``total`` row.

    ``engine.step`` events are sampled (only iterations where something
    happened are emitted), so the loop-iteration count here is a lower
    bound; the fused counts are exact.  The authoritative counters live on
    ``RunResult.jump_stats`` — this table is what you can recover from the
    trace alone.
    """
    per_replica: dict[int | None, dict[str, int]] = defaultdict(
        lambda: {"loop_steps": 0, "silent_jumps": 0, "saturated_jumps": 0, "steps_fused": 0}
    )
    for event in events:
        if event.name == obs.ENGINE_STEP:
            per_replica[event.replica]["loop_steps"] += 1
        elif event.name == obs.ENGINE_JUMP:
            row = per_replica[event.replica]
            source = event.attrs.get("source", "silent")
            row[f"{source}_jumps"] = row.get(f"{source}_jumps", 0) + 1
            row["steps_fused"] += int(event.attrs.get("steps", 0))
    rows = []
    total = {"loop_steps": 0, "silent_jumps": 0, "saturated_jumps": 0, "steps_fused": 0}
    for replica in sorted(per_replica, key=lambda r: (r is None, r)):
        row = per_replica[replica]
        for key in total:
            total[key] += row.get(key, 0)
        rows.append({"replica": replica, **row, "fused_fraction": _fused_fraction(row)})
    if len(rows) > 1:
        rows.append({"replica": "total", **total, "fused_fraction": _fused_fraction(total)})
    return rows


def _fused_fraction(row: dict) -> float:
    """Fused iterations over all iterations visible in the trace."""
    iterations = row["loop_steps"] + row["steps_fused"]
    return round(row["steps_fused"] / iterations, 4) if iterations else 0.0


def throttle_timeline(events: list[TraceEvent], bucket_seconds: float) -> list[dict]:
    """``request.throttled`` counts per tenant per time bucket.

    Tenant identity rides on the ``request.submit`` event, so throttle
    events are joined back to their submission by ``request_id``.
    """
    tenants: dict[object, str] = {}
    for event in events:
        if event.name == obs.REQUEST_SUBMIT and event.request_id is not None:
            who = event.attrs.get("user_id", event.attrs.get("app_id"))
            if who is not None:
                tenants[event.request_id] = str(who)
    buckets: dict[tuple[str, int], int] = defaultdict(int)
    reasons: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for event in events:
        if event.name != obs.REQUEST_THROTTLED:
            continue
        tenant = tenants.get(event.request_id, "<anonymous>")
        buckets[(tenant, int(event.time // bucket_seconds))] += 1
        reasons[tenant][str(event.attrs.get("reason", "unknown"))] += 1
    rows = []
    for tenant in sorted(reasons):
        tenant_buckets = {
            bucket: count for (who, bucket), count in sorted(buckets.items()) if who == tenant
        }
        rows.append(
            {
                "tenant": tenant,
                "throttled": sum(tenant_buckets.values()),
                "reasons": dict(sorted(reasons[tenant].items())),
                "timeline": {
                    f"{bucket * bucket_seconds:g}s": count for bucket, count in tenant_buckets.items()
                },
            }
        )
    return rows


def failure_table(events: list[TraceEvent]) -> list[dict]:
    """Per-replica fault spans plus a fleet-wide retry histogram.

    Each ``replica.fail`` opens a span; a matching ``replica.recover`` closes
    it (straggler windows).  Crashes never recover, so their spans stay open
    (``until: None``) — the replacement shows up as a fresh ``replica.launch``
    elsewhere in the trace.  The final row histograms ``request.retry``
    events by attempt number: a healthy recovery story is front-loaded
    (most work lands on attempt 1), while a long tail means the retry
    policy is fighting dead or overloaded capacity.
    """
    spans: dict[int | None, list[dict]] = defaultdict(list)
    retries: dict[int, int] = defaultdict(int)
    for event in events:
        if event.name == obs.REPLICA_FAIL:
            spans[event.replica].append(
                {
                    "cause": str(event.attrs.get("cause", "unknown")),
                    "from": event.time,
                    "until": None,
                }
            )
        elif event.name == obs.REPLICA_RECOVER:
            open_spans = [s for s in spans[event.replica] if s["until"] is None]
            if open_spans:
                open_spans[-1]["until"] = event.time
        elif event.name == obs.REQUEST_RETRY:
            retries[int(event.attrs.get("attempt", 0))] += 1
    rows = [
        {"replica": replica, "faults": spans[replica]}
        for replica in sorted(spans, key=lambda r: (r is None, r))
    ]
    if retries:
        rows.append(
            {
                "replica": "fleet",
                "retry_histogram": {
                    f"attempt-{attempt}": count for attempt, count in sorted(retries.items())
                },
                "retries": sum(retries.values()),
            }
        )
    return rows


def build_report(events: list[TraceEvent], bucket_seconds: float = 10.0) -> dict:
    """The full report as one JSON-serializable dict."""
    names: dict[str, int] = defaultdict(int)
    for event in events:
        names[event.name] += 1
    return {
        "events": len(events),
        "event_counts": dict(sorted(names.items())),
        "phases": phase_table(events),
        "jumps": jump_table(events),
        "throttle": throttle_timeline(events, bucket_seconds),
        "failures": failure_table(events),
    }


def _print_rows(title: str, rows: list[dict]) -> None:
    """Render one section: a title line plus one aligned JSON row per entry."""
    print(f"\n== {title} ==")
    if not rows:
        print("  (no events)")
        return
    for row in rows:
        print("  " + json.dumps(row))


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, read the trace, print the report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="JSONL trace written by JsonlTracer")
    parser.add_argument(
        "--bucket",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="throttle-timeline bucket width in simulated seconds (default: 10)",
    )
    parser.add_argument(
        "--chrome",
        type=Path,
        default=None,
        metavar="OUT",
        help="also export Chrome trace_event JSON (Perfetto-loadable) to OUT",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the whole report as one JSON document instead of tables",
    )
    args = parser.parse_args(argv)

    if not args.trace.exists():
        parser.error(f"trace file not found: {args.trace}")
    events = read_jsonl_trace(args.trace)
    report = build_report(events, bucket_seconds=args.bucket)

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"{args.trace}: {report['events']} events")
        for name, count in report["event_counts"].items():
            print(f"  {name}: {count}")
        _print_rows("request phase latency (seconds)", report["phases"])
        _print_rows("jump efficiency", report["jumps"])
        _print_rows("per-tenant throttling", report["throttle"])
        _print_rows("failure timeline", report["failures"])

    if args.chrome is not None:
        from repro.obs.export import export_chrome_trace

        export_chrome_trace(events, args.chrome)
        print(f"\nChrome trace written to {args.chrome} (open in Perfetto or chrome://tracing)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
