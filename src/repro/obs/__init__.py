"""Observability: tracing, instrumentation, and exportable timelines.

The simulators are deterministic black boxes by default — the only outputs
are end-of-run aggregates.  This package opens them up without perturbing
them:

* :mod:`repro.obs.tracer` — the :class:`Tracer` interface and its three
  implementations: the zero-overhead :class:`NullTracer` default, the
  bounded-memory :class:`RingTracer`, and the streaming :class:`JsonlTracer`.
* :mod:`repro.obs.events` — the typed event taxonomy every simulator layer
  emits (request lifecycle, engine macro-steps, fleet transitions, routing
  and autoscale decisions, throttle rejections).
* :mod:`repro.obs.export` — exporters: Chrome ``trace_event`` JSON loadable
  in Perfetto / ``chrome://tracing`` (one track per replica, one span per
  request phase) plus the span-derivation helpers ``tools/trace_report.py``
  builds its text summaries on.

The contract every emitter honours: with the default :class:`NullTracer`
attached, simulation results are byte-identical to an untraced run — tracing
reads state, never writes it, and every emission site is guarded so the
disabled path costs one attribute check.
"""
