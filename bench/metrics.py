"""Metric definitions shared by the runner, ``compare`` and the tests.

``BENCHMARK.json`` at the checkout root lists the same metrics; a test keeps
the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .layers import LAYERS


@dataclass(frozen=True)
class Metric:
    """One reported number: its unit, which direction is better, and its bound.

    ``bound`` (end-to-end metrics only) is the share of the baseline median by
    which the metric may worsen before a change counts as a regression.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None

    def worsening(self, base: float, new: float) -> float:
        """How much worse ``new`` is than ``base``, as a share of ``base``."""
        change = (new - base) / base
        return change if self.better == "lower" else -change

    def beats(self, new: float, base: float) -> bool:
        """Whether ``new`` reads strictly better than ``base``."""
        return new < base if self.better == "lower" else new > base


END_TO_END: tuple[Metric, ...] = (
    Metric("host_req_per_s", "req/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
)

#: Simulated outcomes: exact under a simulator-only change, reported but not bounded.
SIMULATED: tuple[Metric, ...] = (
    Metric("goodput_tok_s", "tok/s", "higher"),
    Metric("ttft_p50_s", "s", "lower"),
    Metric("ttft_p99_s", "s", "lower"),
    Metric("sla_ok_frac", "fraction", "higher"),
)

COUNTERS: tuple[Metric, ...] = (
    Metric("engine.loop_steps", "count", "lower"),
    Metric("engine.steps_fused", "count", "higher"),
    Metric("engine.fused_fraction", "fraction", "higher"),
    Metric("engine.horizon_clips", "count", "lower"),
    Metric("engine.scheduler_consults", "count", "lower"),
    Metric("engine.queue_wait_p50_s", "s", "lower"),
    Metric("engine.evictions_per_req", "ratio", "lower"),
    Metric("schedulers.admit_frac", "fraction", "higher"),
    Metric("serving.routing.deferred", "count", "lower"),
    Metric("serving.routing.rejected", "count", "lower"),
    Metric("serving.throttle.throttled", "count", "lower"),
    Metric("serving.faults.retries", "count", "lower"),
    Metric("serving.faults.lost_tokens", "count", "lower"),
    Metric("memory.prefix_cache.hit_rate", "fraction", "higher"),
    Metric("memory.prefix_cache.evictions", "count", "lower"),
    Metric("obs.events", "count", "lower"),
    Metric("obs.ring_overhead", "ratio", "lower"),
    Metric("bench.trace_overhead", "ratio", "lower"),
    Metric("workloads.gen_s", "s", "lower"),
)

PER_LAYER: tuple[Metric, ...] = (
    *(
        metric
        for layer in LAYERS
        for metric in (
            Metric(f"{layer}.calls", "count", "lower"),
            Metric(f"{layer}.self_s", "s", "lower"),
            Metric(f"{layer}.share", "fraction", "lower"),
        )
    ),
    *COUNTERS,
)
