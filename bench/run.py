"""The benchmark run: checked warm-up, timed rounds, cold starts and a traced profile.

1. **Checked warm-up.**  One call per input instance.  It yields the simulated
   metrics and the digest every later call of that instance must reproduce.
   At seed 0 the digests must equal the ones pinned in ``bench/baseline.json``.
   At any other seed, whenever the traced phase runs, instance 0 is also
   replayed on the reference loop (``fast_path=False``), which must produce
   the same digest.
2. **End-to-end phase.**  Rounds of one call per instance, tracing off, the
   workload order rotating each round, until every workload has ``--seconds``
   of timed calls and at least three rounds ran.
3. **Cold starts.**  Fresh interpreters, one at a time, time the set-up and
   measure peak memory (:mod:`bench.coldstart`).
4. **Traced phase.**  Instance 0 runs twice as an untraced, a layer-traced
   (:class:`bench.layers.LayerTracer`) and a ``RingTracer`` call; the layer
   call counts must repeat exactly.

Everything but the cold starts runs in this single-threaded process, with
the garbage collector enabled during calls and collected between them.  Any
failed check stops the run with a non-zero exit and no result line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs.tracer import RingTracer

from . import ROOT
from .layers import LAYERS, LayerTracer
from .metrics import END_TO_END, PER_LAYER, SIMULATED
from .probe import REFERENCE_S, Yardstick
from .workloads import INSTANCES, WORKLOADS, Tally, Workload, check

BASELINE = Path(__file__).with_name("baseline.json")
#: Timed rounds per run, at least; more run until ``--seconds`` is reached.
MIN_ROUNDS = 3
COLD_STARTS = 5
#: Seconds a cold-start child may take before the run fails.
CHILD_TIMEOUT = 120


class Failure(Exception):
    """A check failed; the run stops without a result."""


@dataclass
class Bench:
    """Inputs, digests and measurements of one workload within a run."""

    workload: Workload
    instances: list
    gen_s: float
    digests: list[str] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    finished: list[int] = field(default_factory=list)
    times: list[list[float]] = field(default_factory=list)
    scaled: list[list[float]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    edges: dict[str, dict] = field(default_factory=dict)


class Runner:
    """Runs the phases for a set of workloads and one seed, counting calls."""

    def __init__(self, names: list[str], seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.benches = []
        for name in names:
            workload = WORKLOADS[name]
            start = time.perf_counter()
            instances = workload.instances(seed)
            self.benches.append(Bench(workload, instances, time.perf_counter() - start))

    # ------------------------------------------------------------------ calls
    def call(self, bench: Bench, index: int, fast_path: bool = True, tracer=None, layers=None):
        """One checked call of instance ``index``: ``(seconds, phases, results, digest)``.

        Only the ``run_*`` calls are timed.  A ``LayerTracer`` passed as
        ``layers`` is installed around them alone.
        """
        self.attempted += 1
        phases = bench.workload.phases(bench.instances[index], fast_path=fast_path, tracer=tracer)
        gc.collect()
        with layers if layers is not None else contextlib.nullcontext():
            start = time.perf_counter()
            results = [phase.run() for phase in phases]
            seconds = time.perf_counter() - start
        digest, problems = check(bench.workload, phases, results)
        label = f"{bench.workload.name}[{index}]"
        if problems:
            raise Failure(f"{label}: " + "; ".join(problems))
        if index < len(bench.digests) and digest != bench.digests[index]:
            warm = bench.digests[index]
            raise Failure(f"{label}: digest {digest[:16]} differs from the warm-up's {warm[:16]}")
        return seconds, phases, results, digest

    # ----------------------------------------------------------------- phases
    def warm_up(self, instances: int, oracle: bool) -> None:
        """Phase 1: one checked call per instance, then the pinned digests or the oracle."""
        pinned = json.loads(BASELINE.read_text())["digests"] if self.seed == 0 else {}
        for bench in self.benches:
            name = bench.workload.name
            for index in range(instances):
                _, phases, results, digest = self.call(bench, index)
                bench.digests.append(digest)
                bench.tally.add(phases, results)
                bench.finished.append(sum(len(r.finished_requests) for r in results))
            if self.seed == 0:
                expected = pinned[name][:instances]
                if bench.digests != expected:
                    raise Failure(f"{name}: seed-0 digests {bench.digests} differ from baseline {expected}")
            elif oracle:
                # The reference loop is the oracle; its digest must match the fast path's.
                self.call(bench, 0, fast_path=False)

    def timed_rounds(self, seconds: float) -> None:
        """Phase 2: interleaved rounds of every instance until ``seconds`` each."""
        for bench in self.benches:
            bench.times = [[] for _ in bench.instances]
            bench.scaled = [[] for _ in bench.instances]
        yardstick = Yardstick()
        rounds = 0
        while rounds < MIN_ROUNDS or any(sum(map(sum, b.times)) < seconds for b in self.benches):
            shift = rounds % len(self.benches)
            for bench in self.benches[shift:] + self.benches[:shift]:
                for index in range(len(bench.instances)):
                    elapsed = self.call(bench, index)[0]
                    bench.times[index].append(elapsed)
                    bench.scaled[index].append(yardstick.scale(elapsed))
            rounds += 1
        for bench in self.benches:
            bench.probes = yardstick.probes
            # Other tenants of a shared machine only ever add time, so an
            # instance's fastest call estimates the simulator's own speed.
            fastest = [min(scaled) for scaled in bench.scaled]
            bench.end_to_end["host_req_per_s"] = sum(bench.finished) / sum(fastest)

    def cold_starts(self) -> None:
        """Phase 3: set-up time and peak memory of fresh interpreters."""
        for bench in self.benches:
            setups = []
            yardstick = Yardstick()
            for index in range(COLD_STARTS):
                command = [sys.executable, "-m", "bench.coldstart", bench.workload.name, str(self.seed)]
                if index == COLD_STARTS - 1:
                    command.append("--run")
                    self.attempted += 1
                launched = time.time()
                child = subprocess.run(
                    command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
                )
                if child.returncode != 0:
                    raise Failure(f"cold start of {bench.workload.name} failed:\n{child.stderr}")
                measured = json.loads(child.stdout.splitlines()[-1])
                setups.append(yardstick.scale(measured["setup_done"] - launched))
            bench.end_to_end["setup_s"] = statistics.median(setups)
            bench.end_to_end["peak_rss_mib"] = measured["peak_rss_mib"]

    def traced(self) -> None:
        """Phase 4: per-layer profile of instance 0, run twice."""
        for bench in self.benches:
            name = bench.workload.name
            untraced, layered, ringed, tracers, rings = [], [], [], [], []
            for _ in range(2):
                seconds, phases, results, _ = self.call(bench, 0)
                untraced.append(seconds)
                tracer = LayerTracer()
                layered.append(self.call(bench, 0, layers=tracer)[0])
                tracers.append(tracer)
                ring = RingTracer()
                ringed.append(self.call(bench, 0, tracer=ring)[0])
                rings.append(ring.emitted)
            counts = [({k: v[0] for k, v in t.edges.items()}, t.admitting) for t in tracers]
            if counts[0] != counts[1] or rings[0] != rings[1]:
                raise Failure(f"{name}: layer call counts differ between the two traced runs")
            bench.per_layer.update(self._layer_metrics(tracers))
            bench.per_layer.update(self._counters(phases, results, counts[0][1], rings[0]))
            bench.per_layer["obs.ring_overhead"] = min(ringed) / min(untraced)
            bench.per_layer["bench.trace_overhead"] = min(layered) / min(untraced)
            bench.per_layer["workloads.gen_s"] = bench.gen_s
            bench.edges = {
                f"{parent or 'root'}>{layer}": {
                    "calls": calls,
                    "self_s": sum(t.edges[(parent, layer)][1] for t in tracers) / len(tracers) / 1e9,
                }
                for (parent, layer), (calls, _) in tracers[0].edges.items()
            }

    @staticmethod
    def _layer_metrics(tracers: list[LayerTracer]) -> dict[str, float]:
        root_s = sum(t.root_ns for t in tracers) / len(tracers) / 1e9
        totals = [t.layer_totals() for t in tracers]
        metrics = {}
        for layer in LAYERS:
            self_s = sum(total[layer][1] for total in totals) / len(totals) / 1e9
            metrics[f"{layer}.calls"] = totals[0][layer][0]
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.share"] = self_s / root_s
        return metrics

    @staticmethod
    def _counters(phases, results, admitting: int, events: int) -> dict[str, float]:
        tally = Tally()
        tally.add(phases, results)
        jump = tally.jump
        clips = sum(n for reason, n in jump.fallback_reasons.items() if reason.endswith("horizon-clip"))
        return {
            "engine.loop_steps": jump.loop_steps,
            "engine.steps_fused": jump.steps_fused,
            "engine.fused_fraction": jump.fused_fraction,
            "engine.horizon_clips": clips,
            "engine.scheduler_consults": jump.scheduler_consults,
            "engine.queue_wait_p50_s": float(np.percentile(tally.queue_waits, 50)),
            "engine.evictions_per_req": tally.evictions / tally.finished,
            # The engine makes one schedule() call per scheduler consult.
            "schedulers.admit_frac": admitting / jump.scheduler_consults if jump.scheduler_consults else 0.0,
            "serving.routing.deferred": tally.deferrals,
            "serving.routing.rejected": tally.rejected - tally.throttled,
            "serving.throttle.throttled": tally.throttled,
            "serving.faults.retries": tally.retries,
            "serving.faults.lost_tokens": tally.lost_tokens,
            "memory.prefix_cache.hit_rate": tally.prefix.hit_rate,
            "memory.prefix_cache.evictions": tally.prefix.evictions,
            "obs.events": events,
        }


# ------------------------------------------------------------------ reporting
def simulated(tally: Tally) -> dict[str, float]:
    """The simulated end-to-end metrics of a pooled tally."""
    return {
        "goodput_tok_s": tally.good_tokens / tally.sim_seconds,
        "ttft_p50_s": float(np.percentile(tally.ttfts, 50)),
        "ttft_p99_s": float(np.percentile(tally.ttfts, 99)),
        "sla_ok_frac": tally.sla_ok / tally.submitted,
    }


def report(runner: Runner) -> dict:
    """The run's full report, as ``--out`` stores it."""
    units = {m.name: m.unit for m in (*END_TO_END, *SIMULATED, *PER_LAYER)}
    workloads = {}
    for bench in runner.benches:
        tally = bench.tally
        workloads[bench.workload.name] = {
            "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in bench.end_to_end.items()},
            "simulated": {k: {"value": v, "unit": units[k]} for k, v in simulated(tally).items()},
            "counts": {
                "submitted": tally.submitted,
                "finished": tally.finished,
                "rejected": tally.rejected,
                "sla_ok": tally.sla_ok,
            },
            "digests": bench.digests,
            "calls_s": bench.times,
            "probes_s": bench.probes,
            "per_layer": {k: {"value": v, "unit": units[k]} for k, v in bench.per_layer.items()},
            "edges": bench.edges,
        }
    return {"seed": runner.seed, "attempted": runner.attempted, "failed": 0, "workloads": workloads}


def print_report(full: dict) -> None:
    """Human-readable summary: every metric by name with its unit and its base."""
    for name, entry in full["workloads"].items():
        counts = entry["counts"]
        print(f"== {name} (seed {full['seed']})")
        print(
            f"   base: {counts['submitted']} submitted, {counts['finished']} finished, "
            f"{counts['rejected']} rejected, {counts['sla_ok']} met the SLA"
        )
        if entry["calls_s"]:
            calls = entry["calls_s"]
            print(
                f"   timed: {len(calls[0])} rounds x {len(calls)} instances, {sum(map(sum, calls)):.1f} s "
                f"of calls; fastest probe {min(entry['probes_s']):.4f} s (reference {REFERENCE_S} s)"
            )
        for group in ("end_to_end", "simulated", "per_layer"):
            for metric, value in entry[group].items():
                print(f"   {metric:36} {value['value']:>14.6g} {value['unit']}")


def main(argv: list[str]) -> int:
    """Parse arguments, run the phases and print the report; returns the exit status."""
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), dest="workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds per workload")
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end phases only; 1: traced phase only; default: both",
    )
    parser.add_argument("--out", type=Path, help="append the full report to this JSON Lines file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    names = args.workloads or list(WORKLOADS)
    runner = Runner(names, args.seed)
    try:
        if args.trace == 1:
            runner.warm_up(instances=1, oracle=True)
            runner.traced()
        else:
            runner.warm_up(instances=INSTANCES, oracle=args.trace is None)
            runner.timed_rounds(args.seconds)
            runner.cold_starts()
            if args.trace is None:
                runner.traced()
    except Failure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    full = report(runner)
    print_report(full)
    if args.out is not None:
        with args.out.open("a") as out:
            out.write(json.dumps(full) + "\n")
    wanted = {0: END_TO_END, 1: PER_LAYER, None: (*END_TO_END, *PER_LAYER)}[args.trace]
    metrics = {}
    for name, entry in full["workloads"].items():
        values = {**entry["end_to_end"], **entry["per_layer"]}
        for metric in wanted:
            key = metric.name if len(names) == 1 else f"{name}.{metric.name}"
            metrics[key] = values[metric.name]
    print(json.dumps({"correct": True, "attempted": runner.attempted, "failed": 0, "metrics": metrics}))
    return 0
