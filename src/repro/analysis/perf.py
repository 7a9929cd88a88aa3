"""Tracked performance benchmarks for the simulator core (``BENCH_core.json``).

The reproduction's figures are produced by stepping the continuous-batching
engine one decode iteration at a time; the event-jump fast path
(:meth:`repro.engine.engine.InferenceEngine.try_jump_any`) fuses provably
event-free iterations into vectorized macro-steps with bit-identical results.
This module pins that claim under regression tracking:

* :data:`SCENARIOS` is a declarative table of eight full-scale workloads —
  single engines (fig07, fig13), fixed, elastic and heterogeneous fleets
  (fig10–fig12), a chaos fleet (fig14) and a session-affinity fleet (fig15).
  Each entry lists the runs it times, each one
  :class:`~repro.analysis.experiments.FleetConfig` plus a load; one timing
  path (:meth:`Scenario.run`) runs them all, once with the fast path and once
  with the reference one-iteration loop (``fast_path=False``);
* the two runs' result snapshots are hashed and compared — any divergence
  fails the harness before any timing is reported;
* wall-clock times and speedups are written to ``BENCH_core.json`` at the
  repo root, which CI's ``perf-smoke`` job regenerates and compares against
  the committed numbers.

Speedups are reported against the *in-repo* reference loop, which already
includes every satellite fix (O(1) pool accounting, incremental admission,
vectorized prediction) — i.e. they are conservative.  The
``seed_loop_seconds`` entries record each scenario measured once against the
tree *before* the PR that introduced it (see :data:`SEED_LOOP_SECONDS`); they
are kept for context and are not re-measured by CI.

Run ``python -m repro.analysis.perf`` to regenerate ``BENCH_core.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.analysis.experiments import FleetConfig, Load, run_experiment
from repro.engine.engine import JumpStats
from repro.hardware.platform import paper_platform, paper_platforms
from repro.obs.tracer import Tracer
from repro.serving.autoscale import Autoscaler, PredictivePolicy
from repro.serving.faults import FaultPlan, ReplicaCrash, RetryPolicy, Straggler
from repro.serving.results import ClusterResult, RunResult
from repro.serving.throttle import OverloadThrottle
from repro.workloads.arrivals import (
    assign_bursty_arrivals,
    assign_diurnal_arrivals,
    assign_poisson_arrivals,
)
from repro.workloads.interactions import generate_interactions
from repro.workloads.sharegpt import (
    generate_sharegpt_o1_workload,
    generate_sharegpt_workload,
)
from repro.workloads.spec import assign_sla_classes, scale_workload
from repro.workloads.tenants import assign_tenants, generate_tenant_population


def _repo_root() -> Path:
    """The checkout root (where ``pyproject.toml`` lives), else the cwd."""
    for parent in Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return Path.cwd()


#: Repo-root output file; the perf trajectory is tracked in version control.
BENCH_PATH = _repo_root() / "BENCH_core.json"

#: Wall-clock seconds of each scenario under the *pre-PR* loop, measured once
#: on the machine that produced the committed ``BENCH_core.json``.  Context
#: only — CI never compares against these.  The first three entries are the
#: loop before the event-jump fast path existed (commit ``53a8e4e``); the
#: saturated and heterogeneous entries are the loop *with* that fast path but
#: before saturated-phase jumps (commit ``7edef41``), i.e. each entry is the
#: best the tree could do before the PR that introduced its scenario.
SEED_LOOP_SECONDS = {
    "fig07_goodput_vs_clients": 14.5,
    "fig10_cluster_routing": 2.70,
    "fig11_autoscaling": 2.38,
    "fig07_saturated": 3.52,
    "fig12_heterogeneous": 0.38,
}


# ---------------------------------------------------- snapshots / fingerprints
def run_snapshot(result: RunResult) -> dict:
    """Everything a :class:`RunResult` exposes, in exact-comparable form.

    The single serialization oracle shared by the fast-path equivalence
    tests (which diff it) and the perf harness (which hashes it) — one
    place to extend when results grow new fields.
    """
    requests = sorted(result.requests, key=lambda r: r.request_id)
    timeline = result.memory_timeline
    snapshot = {
        "duration": result.duration,
        "completed": result.completed,
        "stats": result.engine_stats,
        "states": [r.state for r in requests],
        "token_times": [tuple(r.token_times) for r in requests],
        "admission_times": [tuple(r.admission_times) for r in requests],
        "finish_times": [r.finish_time for r in requests],
        "evictions": [r.eviction_count for r in requests],
        "memory": list(
            zip(
                range(1, len(timeline) + 1),
                timeline.times,
                timeline.used_tokens,
                timeline.future_required_tokens,
                timeline.running_requests,
                timeline.queued_requests,
            )
        ),
    }
    # Throttle bookkeeping is appended only when present, so fingerprints of
    # runs without a throttle — including every committed baseline — are
    # unchanged by the fields' existence.
    if result.rejected:
        snapshot["rejected"] = [r.request_id for r in result.rejected]
        snapshot["reject_reasons"] = dict(sorted(result.reject_reasons.items()))
    # Session and prefix-cache bookkeeping follow the same rule: absent from
    # every session-free run, so the committed baselines are untouched.
    if result.prefix_stats is not None:
        snapshot["prefix"] = result.prefix_stats.summary()
    if any(r.spec.session_id is not None for r in requests):
        snapshot["sessions"] = result.session_summary().summary()
    return snapshot


def cluster_snapshot(result: ClusterResult) -> dict:
    """Exact-comparable view of a fleet run: replicas plus fleet bookkeeping."""
    snapshot = {
        "duration": result.duration,
        "completed": result.completed,
        "replicas": [run_snapshot(replica) for replica in result.replicas],
        "rejected": [r.request_id for r in result.rejected],
        "fleet": [(s.time, s.active, s.warming, s.draining) for s in result.fleet_timeline],
        "lifetimes": [
            (life.replica_id, life.launched_at, life.ready_at, life.retired_at)
            for life in result.lifetimes
        ],
    }
    # Fault bookkeeping is appended only when a fault plan actually acted, so
    # fingerprints of fault-free runs — including every committed baseline —
    # are unchanged by the fields' existence.
    if result.fault_events or result.failed or result.retries:
        snapshot["failed"] = sorted(r.request_id for r in result.failed)
        snapshot["lost_tokens"] = result.lost_tokens
        snapshot["retries"] = result.retries
        # The pinned digests hash this key; no fault migrates work, so it is 0.
        snapshot["migrations"] = 0
        snapshot["faults"] = [
            (e.time, e.kind, e.replica, tuple(sorted(e.detail.items())))
            for e in result.fault_events
        ]
    # Fleet-level session/prefix view: absent unless sessions were served (the
    # per-replica prefix stats already live in each replica's snapshot).
    if any(r.spec.session_id is not None for r in result.requests):
        snapshot["sessions"] = result.session_summary().summary()
    return snapshot


def _hash_parts(parts: list[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def run_fingerprint(result: RunResult) -> str:
    """Digest of :func:`run_snapshot`; ``repr`` round-trips floats exactly,
    so two runs collide only when their metrics are bit-identical."""
    return _hash_parts([repr(run_snapshot(result))])


def cluster_fingerprint(result: ClusterResult) -> str:
    """Digest of :func:`cluster_snapshot` (see :func:`run_fingerprint`)."""
    return _hash_parts([repr(cluster_snapshot(result))])


# ------------------------------------------------------------------ scenarios
@dataclass(frozen=True)
class Call:
    """One timed run inside a :class:`Scenario`: a config and its load.

    ``inputs()`` builds the load (a workload or sessions) that
    :func:`~repro.analysis.experiments.run_experiment` serves under
    ``config``.  Every run builds a fresh simulator and scheduler from the
    config; a stateful instance the config holds (a router, a throttle or an
    autoscaler) is reset by its ``on_run_start``, so repeats share nothing.  ``label`` prefixes this call's fingerprint in a multi-call
    scenario's digest.
    """

    config: FleetConfig
    inputs: Callable[[], Load]
    label: str | None = None


@dataclass(frozen=True)
class Scenario:
    """One timed workload: a name, a description and its runs.

    :meth:`run` returns ``(simulation_seconds, fingerprint, jump_summary)``.
    Only :func:`~repro.analysis.experiments.run_experiment` is timed; input
    generation, config validation and fingerprint hashing are excluded.
    The timed part includes building the simulator, which is at most about
    half a millisecond per scenario: under 1% of the fastest fast run.  A
    single unlabelled call's digest is its bare result fingerprint;
    otherwise the digest hashes the calls' ``label:fingerprint`` parts in
    call order.  ``jump_summary`` is the merged
    :meth:`~repro.engine.engine.JumpStats.summary` across the calls (the
    engine's own profile of how much work the event jumps fused).  An
    optional ``tracer`` is attached to every simulator built; fingerprints
    are tracer-independent, so traced runs remain valid measurements of
    *results* — only the timings become untrustworthy.
    """

    name: str
    description: str
    calls: tuple[Call, ...] = field(repr=False)

    def run(self, fast_path: bool, tracer: Tracer | None = None) -> tuple[float, str, dict]:
        """Run every call under the given loop; see the class docstring."""
        elapsed = 0.0
        jump = JumpStats()
        parts: list[str] = []
        for call in self.calls:
            inputs = call.inputs()
            config = replace(call.config, fast_path=fast_path)
            start = time.perf_counter()
            result = run_experiment(config, inputs, tracer)
            elapsed += time.perf_counter() - start
            jump.merge(result.jump_stats)
            if isinstance(result, ClusterResult):
                fingerprint = cluster_fingerprint(result)
            else:
                fingerprint = run_fingerprint(result)
            parts.append(fingerprint if call.label is None else f"{call.label}:{fingerprint}")
        single = len(parts) == 1 and self.calls[0].label is None
        digest = parts[0] if single else _hash_parts(parts)
        return elapsed, digest, jump.summary()


#: Llama-2-7B on one A100, the platform every scenario but fig12 serves on.
A100 = paper_platform("7b-a100")

#: One 7B/A100 engine under past-future with 8192-token chunked prefill.
ENGINE = FleetConfig(
    platform=A100,
    scheduler_kwargs={"reserved_fraction": 0.03, "seed": 7, "num_samples": 4},
    chunked_prefill_tokens=8192,
)

#: Four aggressive (watermark 0.95) 7B/A100 replicas behind the memory-aware
#: router, each with an eighth of the pool and 8192-token chunked prefill.
FLEET = FleetConfig(
    platform=A100,
    num_replicas=4,
    router="memory-aware",
    scheduler_name="aggressive",
    scheduler_kwargs={"watermark": 0.95},
    token_capacity_override=A100.token_capacity // 8,
    chunked_prefill_tokens=8192,
)


def _fig10_workload():
    return assign_bursty_arrivals(
        generate_sharegpt_workload(400, seed=71),
        base_rate=0.2,
        burst_rate=8.0,
        burst_length=80,
        cycle_length=100,
        seed=9,
    )


def _fig11_workload():
    return assign_bursty_arrivals(
        generate_sharegpt_workload(400, seed=73),
        base_rate=0.1,
        burst_rate=4.0,
        burst_length=80,
        cycle_length=100,
        seed=11,
    )


def _fig12_workload():
    workload = scale_workload(
        generate_sharegpt_o1_workload(300, seed=71, max_new_tokens=4096), 0.5
    )
    workload = assign_sla_classes(workload, {"interactive": 0.7, "batch": 0.3}, seed=5)
    return assign_diurnal_arrivals(
        workload,
        base_rate=0.5,
        burst_rate=20.0,
        period=60.0,
        amplitude=0.6,
        burst_length=60,
        cycle_length=100,
        seed=9,
    )


def _fig13_tenants():
    """Two abusive users hold half the traffic over a Zipf tail."""
    return generate_tenant_population(32, num_apps=4, abusive_users=2, abusive_share=0.5)


def _fig13_closed_workload():
    return assign_tenants(generate_sharegpt_o1_workload(250, seed=71), _fig13_tenants(), seed=13)


def _fig13_open_workload():
    workload = assign_tenants(generate_sharegpt_workload(300, seed=73), _fig13_tenants(), seed=17)
    return assign_poisson_arrivals(workload, request_rate=2.0, seed=19)


def _fig14_fault_plan() -> FaultPlan:
    """Two crashes (replacements boot in 15 s) and one 45 s 3x straggler."""
    return FaultPlan(
        crashes=[ReplicaCrash(time=40.0, replica=1), ReplicaCrash(time=110.0, replica=2)],
        stragglers=[Straggler(start=60.0, duration=45.0, replica=0, slowdown=3.0)],
        seed=23,
        retry_policy=RetryPolicy(base_delay=0.1, max_attempts=5, seed=23),
        replacement_warmup=15.0,
    )


def _fig15_interactions():
    """120 heavy-tail agentic sessions of 2–8 turns."""
    return generate_interactions(
        120,
        seed=71,
        mean_prompt_tokens=256.0,
        mean_output_tokens=128.0,
        min_turns=2,
        max_turns=8,
        think_time=20.0,
        start_spacing=10.0,
    )


SCENARIOS: tuple[Scenario, ...] = (
    # The paper's headline sweep: light load (almost every iteration fuses)
    # to deep saturation (the scheduler is consulted every iteration).
    Scenario(
        name="fig07_goodput_vs_clients",
        description="single engine, ShareGPT-o1 full length, past-future, clients 8-128",
        calls=tuple(
            Call(
                replace(ENGINE, token_capacity_override=A100.token_capacity, num_clients=clients),
                lambda: generate_sharegpt_o1_workload(250, seed=71),
                label=f"clients={clients}",
            )
            for clients in (8, 32, 64, 128)
        ),
    ),
    # 256 clients against half the pool keep the queue non-empty for ~90% of
    # iterations: the regime the saturated jump exists for.
    Scenario(
        name="fig07_saturated",
        description="single engine at half pool, 256 clients, ~90% saturated iterations",
        calls=(
            Call(
                replace(ENGINE, token_capacity_override=A100.token_capacity // 2, num_clients=256),
                lambda: generate_sharegpt_o1_workload(400, seed=71),
            ),
        ),
    ),
    Scenario(
        name="fig10_cluster_routing",
        description="4-replica fleet, memory-aware router, bursty full-length trace",
        calls=(Call(FLEET, _fig10_workload),),
    ),
    # Warm-up completions and autoscale decisions bound the jump horizon.
    Scenario(
        name="fig11_autoscaling",
        description="elastic 1-6 replica fleet, predictive policy, bursty full-length trace",
        calls=(
            Call(
                replace(
                    FLEET,
                    router="least-outstanding",
                    num_replicas=2,
                    autoscaler=Autoscaler(
                        PredictivePolicy(
                            target_utilization=0.8, scale_down_cooldown=60.0, default_length=2048
                        ),
                        interval=5.0,
                        max_replicas=6,
                        warmup_delay=30.0,
                        sample_window=40.0,
                    ),
                ),
                _fig11_workload,
            ),
        ),
    ),
    # capacity_scale keeps the ~6.6x A100:4090 capacity ratio.
    Scenario(
        name="fig12_heterogeneous",
        description="mixed 2x A100 + 1x RTX-4090 fleet, memory-aware router, diurnal two-class trace",
        calls=(
            Call(
                replace(
                    FLEET,
                    platform=None,
                    platforms=paper_platforms("7b-a100", "7b-a100", "7b-4090"),
                    num_replicas=3,
                    token_capacity_override=None,
                    capacity_scale=1.0 / 8.0,
                    chunked_prefill_tokens=4096,
                ),
                _fig12_workload,
            ),
        ),
    ),
    # A saturated VTC engine (the fair scheduler's no-admit proof with
    # reordered admission) plus a throttled open loop (reject-path fields).
    Scenario(
        name="fig13_fairness",
        description="heavy-tail tenants: saturated VTC engine + throttled weighted-VTC open loop",
        calls=(
            Call(
                replace(
                    ENGINE,
                    scheduler_name="vtc",
                    scheduler_kwargs={"watermark": 0.95},
                    token_capacity_override=A100.token_capacity // 2,
                    num_clients=128,
                ),
                _fig13_closed_workload,
                label="vtc-saturated",
            ),
            Call(
                replace(
                    ENGINE,
                    scheduler_name="weighted-vtc",
                    scheduler_kwargs={"weights": {"user-0000": 2.0}, "watermark": 0.95},
                    token_capacity_override=A100.token_capacity // 4,
                    throttle=OverloadThrottle(user_rpm=12),
                ),
                _fig13_open_workload,
                label="weighted-throttled",
            ),
        ),
    ),
    # The fig10 fleet under chaos: FAULT events bound the jump horizon, so
    # macro-steps must never fuse across a crash, retry or replacement.
    Scenario(
        name="fig14_failure_recovery",
        description="4-replica fleet under chaos: 2 crashes + 45s straggler, retries and replacements",
        calls=(Call(replace(FLEET, faults=_fig14_fault_plan()), _fig10_workload),),
    ),
    # Every follow-up turn is spawned by its predecessor's completion, so
    # spawned arrivals bound the jump horizon; the prefix cache holds half
    # of each replica's pool.
    Scenario(
        name="fig15_session_affinity",
        description="4-replica fleet, session-affinity router + prefix cache, 120 multi-turn sessions",
        calls=(
            Call(
                replace(
                    FLEET,
                    router="session-affinity",
                    prefix_cache_tokens=A100.token_capacity // 16,
                ),
                _fig15_interactions,
            ),
        ),
    ),
)


# --------------------------------------------------------------------- driver
class FastPathDivergenceError(AssertionError):
    """The fast path produced different metrics than the reference loop."""


def _timed_runs(scenario: Scenario, fast_path: bool, repeats: int) -> tuple[float, str, dict]:
    """Best-of-``repeats`` wall-clock (the noise-robust estimator) + digest.

    Garbage collection is paused around each run so collection pauses land
    between measurements, not inside them; every repeat must produce the
    same digest (simulations are deterministic).  The jump summary of the
    last repeat is returned (identical across repeats, like the digest).
    """
    import gc

    best = None
    digest = None
    jump: dict = {}
    for _ in range(repeats):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            seconds, run_digest, jump = scenario.run(fast_path)
        finally:
            if enabled:
                gc.enable()
        if digest is None:
            digest = run_digest
        elif digest != run_digest:
            raise FastPathDivergenceError(
                f"scenario {scenario.name!r}: non-deterministic digest across repeats"
            )
        best = seconds if best is None else min(best, seconds)
    assert best is not None and digest is not None
    return best, digest, jump


def measure_scenario(scenario: Scenario, repeats: int = 2) -> dict:
    """Time one scenario under both loops and verify bit-identical results.

    The ``jump`` block is the fast-path run's
    :meth:`~repro.engine.engine.JumpStats.summary`: deterministic
    simulations make its counters machine-independent, so CI's perf-smoke
    gate can diff the fusion ratios against the committed baseline — a
    fast-path regression that silently falls back to the loop shows up here
    even when wall-clock noise hides it.
    """
    fast_seconds, fast_digest, fast_jump = _timed_runs(scenario, True, repeats)
    reference_seconds, reference_digest, _ = _timed_runs(scenario, False, repeats)
    if fast_digest != reference_digest:
        raise FastPathDivergenceError(
            f"scenario {scenario.name!r}: fast-path digest {fast_digest[:16]} != "
            f"reference digest {reference_digest[:16]}"
        )
    return {
        "description": scenario.description,
        "fast_seconds": round(fast_seconds, 4),
        "reference_seconds": round(reference_seconds, 4),
        "speedup": round(reference_seconds / fast_seconds, 2),
        "fingerprint": fast_digest,
        "jump": fast_jump,
    }


def run_benchmarks(names: list[str] | None = None, repeats: int = 2) -> dict:
    """Measure every (or the named) scenario and return the report dict."""
    report: dict = {
        "schema": 1,
        "note": (
            "reference_seconds is the in-repo reference loop (fast_path=False), "
            "which already includes every satellite optimisation; "
            "seed_loop_seconds is each scenario's pre-PR loop, measured once at "
            "the commit before the PR that introduced the scenario (53a8e4e for "
            "the original three, 7edef41 for fig07_saturated/fig12_heterogeneous) "
            "and is not re-measured by CI."
        ),
        "scenarios": {},
    }
    for scenario in SCENARIOS:
        if names is not None and scenario.name not in names:
            continue
        entry = measure_scenario(scenario, repeats=repeats)
        seed_seconds = SEED_LOOP_SECONDS.get(scenario.name)
        if seed_seconds:
            entry["seed_loop_seconds"] = seed_seconds
            entry["seed_speedup"] = round(seed_seconds / entry["fast_seconds"], 2)
        report["scenarios"][scenario.name] = entry
    return report


def write_report(report: dict, path: Path | None = None) -> Path:
    """Write the report as pretty JSON; returns the output path."""
    path = path or BENCH_PATH
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def trace_scenario(name: str, trace_path: Path) -> dict:
    """Run one named scenario once, fast path, streaming a JSONL trace.

    The untimed observability entry point behind ``--trace``: attaches a
    :class:`~repro.obs.tracer.JsonlTracer` to every simulator the scenario
    builds and returns its jump summary.  The trace file feeds
    ``tools/trace_report.py`` and
    :func:`repro.obs.export.export_chrome_trace`.
    """
    from repro.obs.tracer import JsonlTracer

    by_name = {scenario.name: scenario for scenario in SCENARIOS}
    if name not in by_name:
        raise SystemExit(f"unknown scenario {name!r}; choose from {sorted(by_name)}")
    with JsonlTracer(trace_path) as tracer:
        _, _, jump = by_name[name].run(True, tracer=tracer)
    return jump


def main() -> None:  # pragma: no cover - thin CLI
    """Command-line entry point: measure the scenarios and write ``BENCH_core.json``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=BENCH_PATH)
    parser.add_argument("--scenario", action="append", dest="scenarios", default=None)
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timed runs per scenario per loop; the minimum is reported "
        "(nightly CI uses a larger value to squeeze out scheduler noise)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="instead of benchmarking, run one scenario (--scenario, default "
        "the first) once with a JSONL tracer attached and write the trace "
        "here; feed the file to tools/trace_report.py",
    )
    args = parser.parse_args()
    if args.trace is not None:
        name = args.scenarios[0] if args.scenarios else SCENARIOS[0].name
        jump = trace_scenario(name, args.trace)
        print(f"{name}: traced to {args.trace}")
        print(f"jump stats: {json.dumps(jump)}")
        return
    report = run_benchmarks(args.scenarios, repeats=args.repeats)
    path = write_report(report, args.output)
    for name, entry in report["scenarios"].items():
        print(
            f"{name}: fast {entry['fast_seconds']}s, reference {entry['reference_seconds']}s, "
            f"speedup {entry['speedup']}x"
        )
    print(f"[written to {path}]")


if __name__ == "__main__":  # pragma: no cover
    main()
