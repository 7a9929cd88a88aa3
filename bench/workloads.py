"""The benchmark's four workloads: seeded inputs, fresh simulators, checked outcomes.

A benchmark seed expands into three input instances per workload.  Seed 0
uses fixed generation seeds, so its results can be pinned by digest; any
other seed derives every generation seed from
``numpy.random.SeedSequence(seed)``.  Seeds that configure the simulated
system itself (the past-future predictor seed, the fault plan's retry
jitter) are never varied: they belong to the program, not to its input.

A *call* is the ``run_*`` method of freshly built simulators and nothing
else; generating inputs, building simulators and digesting results happen
outside it.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import ClassVar

import numpy as np

import repro
from repro.analysis.perf import cluster_snapshot, run_snapshot
from repro.engine.engine import JumpStats
from repro.hardware.platform import paper_platform
from repro.memory.prefix_cache import PrefixCacheStats
from repro.obs.tracer import Tracer
from repro.schedulers.registry import create_scheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import FaultPlan, ReplicaCrash, RetryPolicy, Straggler
from repro.serving.results import ClusterResult
from repro.serving.server import ServingSimulator
from repro.serving.sla import SLA_SMALL_MODEL
from repro.serving.throttle import REASON_THROTTLED, OverloadThrottle
from repro.workloads.arrivals import assign_bursty_arrivals, assign_poisson_arrivals
from repro.workloads.interactions import generate_interactions
from repro.workloads.sharegpt import generate_sharegpt_o1_workload, generate_sharegpt_workload
from repro.workloads.tenants import assign_tenants, generate_tenant_population

from . import SRC

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")

#: Input instances per seed; a round of timed calls runs one call per instance.
INSTANCES = 3
#: The paper's SLA for the 7B model: TTFT < 10 s and MTPOT < 1.5 s.
SLA = SLA_SMALL_MODEL
PLATFORM = "7b-a100"


# ------------------------------------------------------------------ outcomes
def _feed(update, value) -> None:
    """Feed ``value`` to a hash exactly: floats by their bits, containers by shape.

    Equivalent in exactness to hashing ``repr`` (which round-trips floats) but
    several times cheaper on the long float lists a run produces.
    """
    if isinstance(value, dict):
        update(b"{%d" % len(value))
        for key, item in value.items():
            _feed(update, key)
            _feed(update, item)
        return
    if not isinstance(value, (list, tuple)):
        update(repr(value).encode() + b";")
        return
    update(b"[%d" % len(value))
    if not value:
        return
    kind = type(value[0])
    try:
        if kind is float:
            update(array("d", value).tobytes())
            return
        if kind is int:
            update(array("q", value).tobytes())
            return
        if kind is tuple and len(set(map(len, value))) == 1:
            # Rows of one width (the memory timeline): hashed as one flat block.
            update(b"(%d" % len(value[0]) + array("d", chain.from_iterable(value)).tobytes())
            return
    except (TypeError, OverflowError):
        pass
    for item in value:
        _feed(update, item)


def digest_result(result) -> str:
    """SHA-256 of :func:`repro.analysis.perf.run_snapshot` / ``cluster_snapshot``."""
    snapshot = cluster_snapshot(result) if isinstance(result, ClusterResult) else run_snapshot(result)
    digest = hashlib.sha256()
    _feed(digest.update, snapshot)
    return digest.hexdigest()


@dataclass
class Phase:
    """One ``run_*`` call on a freshly built simulator."""

    simulator: ServingSimulator | ClusterSimulator
    method: str
    args: tuple
    #: requests the load generator submits; the ledger must account for each.
    submitted: int

    def run(self):
        """Run the simulation; this is the only work a timed call contains."""
        return getattr(self.simulator, self.method)(*self.args)


def check(workload: Workload, phases: list[Phase], results: list) -> tuple[str, list[str]]:
    """Digest of a call and every problem found in it.

    Each run must have drained, and its ledger must balance: requests routed
    to an engine plus requests rejected equal the requests submitted.
    """
    problems = []
    digest = hashlib.sha256()
    for phase, result in zip(phases, results):
        digest.update(digest_result(result).encode())
        routed, rejected = len(result.requests), len(result.rejected)
        if not result.completed:
            problems.append(f"{phase.method} did not drain")
        if routed + rejected != phase.submitted:
            problems.append(
                f"{phase.method}: routed {routed} + rejected {rejected} != submitted {phase.submitted}"
            )
    return digest.hexdigest(), problems + workload.problems(results)


@dataclass
class Tally:
    """Simulated outcomes and engine counters of one or more calls, pooled."""

    submitted: int = 0
    finished: int = 0
    rejected: int = 0
    throttled: int = 0
    sla_ok: int = 0
    good_tokens: int = 0
    sim_seconds: float = 0.0
    ttfts: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    evictions: int = 0
    deferrals: int = 0
    retries: int = 0
    lost_tokens: int = 0
    jump: JumpStats = field(default_factory=JumpStats)
    prefix: PrefixCacheStats = field(default_factory=PrefixCacheStats)

    def add(self, phases: list[Phase], results: list) -> None:
        """Pool one call's results under the paper's 7B SLA."""
        for phase, result in zip(phases, results):
            self.submitted += phase.submitted
            self.rejected += len(result.rejected)
            self.throttled += result.reject_reasons.get(REASON_THROTTLED, 0)
            self.sim_seconds += result.duration
            self.evictions += result.total_evictions
            self.jump.merge(result.jump_stats)
            if result.prefix_stats is not None:
                self.prefix.merge(result.prefix_stats)
            if isinstance(result, ClusterResult):
                self.deferrals += result.deferrals
                self.retries += result.retries
                self.lost_tokens += result.lost_tokens
            for request in result.requests:
                if request.admission_times:
                    self.queue_waits.append(request.admission_times[0] - request.arrival_time)
                if request.is_finished:
                    self.finished += 1
                    self.ttfts.append(request.ttft)
                    if SLA.request_compliant(request):
                        self.sla_ok += 1
                        self.good_tokens += request.generated_tokens


# ----------------------------------------------------------------- workloads
@dataclass(frozen=True)
class Workload:
    """A named traffic mix; ``size`` scales its request (or session) count."""

    size: int
    name: ClassVar[str]
    why: ClassVar[str]
    #: per-instance generation seeds used at benchmark seed 0.
    fixed_seeds: ClassVar[tuple[tuple[int, ...], ...]]

    def generation_seeds(self, seed: int) -> list[tuple[int, ...]]:
        """Per-instance generation seeds for a benchmark seed."""
        if seed == 0:
            return list(self.fixed_seeds)
        streams = len(self.fixed_seeds[0])
        words = np.random.SeedSequence(seed).generate_state(INSTANCES * streams)
        return [tuple(int(word) for word in row) for row in words.reshape(INSTANCES, streams)]

    def instances(self, seed: int) -> list:
        """The input instances of a benchmark seed."""
        return [self.generate(seeds) for seeds in self.generation_seeds(seed)]

    def generate(self, seeds: tuple[int, ...]):
        """Inputs of one instance."""
        raise NotImplementedError

    def phases(self, inputs, fast_path: bool = True, tracer: Tracer | None = None) -> list[Phase]:
        """Freshly built simulators for one call over ``inputs``."""
        raise NotImplementedError

    def problems(self, results: list) -> list[str]:
        """Workload-specific problems in one call's results."""
        return []


@dataclass(frozen=True)
class PfSaturated(Workload):
    """The paper's scheduler under a queue that never empties."""

    size: int = 400
    name: ClassVar[str] = "pf_saturated"
    why: ClassVar[str] = (
        "past-future scheduler with a queue every iteration: predictor draws and Eq. 2-4 "
        "dominate, no router or cluster loop"
    )
    fixed_seeds: ClassVar[tuple[tuple[int, ...], ...]] = ((71,), (72,), (73,))

    def generate(self, seeds):
        """ShareGPT-o1 requests at full length."""
        return generate_sharegpt_o1_workload(self.size, seed=seeds[0])

    def phases(self, inputs, fast_path=True, tracer=None):
        """One past-future engine on half the 7B pool."""
        platform = paper_platform(PLATFORM)
        simulator = ServingSimulator(
            platform,
            create_scheduler("past-future", reserved_fraction=0.03, seed=7, num_samples=4),
            token_capacity_override=platform.token_capacity // 2,
            chunked_prefill_tokens=8192,
            fast_path=fast_path,
            tracer=tracer,
        )
        return [Phase(simulator, "run_closed_loop", (inputs, 256), len(inputs))]


@dataclass(frozen=True)
class VtcTenants(Workload):
    """Fair scheduling over a heavy-tail tenant population, then a throttled open loop."""

    size: int = 800
    name: ClassVar[str] = "vtc_tenants"
    why: ClassVar[str] = (
        "VTC fairness and a per-user throttle: fusion breaks often, so per-token delivery "
        "and block appends dominate; no predictor draws"
    )
    fixed_seeds: ClassVar[tuple[tuple[int, ...], ...]] = (
        (71, 13, 73, 17, 19),
        (72, 14, 74, 18, 20),
        (75, 15, 76, 21, 22),
    )

    def generate(self, seeds):
        """Tenant-stamped closed-loop and Poisson open-loop traces."""
        population = generate_tenant_population(32, num_apps=4, abusive_users=2, abusive_share=0.5)
        closed = assign_tenants(
            generate_sharegpt_o1_workload(self.size, seed=seeds[0]), population, seed=seeds[1]
        )
        opened = assign_tenants(
            generate_sharegpt_workload(self.size * 6 // 5, seed=seeds[2]), population, seed=seeds[3]
        )
        return closed, assign_poisson_arrivals(opened, request_rate=2.0, seed=seeds[4])

    def phases(self, inputs, fast_path=True, tracer=None):
        """A VTC engine and a throttled weighted-VTC engine."""
        closed, opened = inputs
        platform = paper_platform(PLATFORM)
        fair = ServingSimulator(
            platform,
            create_scheduler("vtc", watermark=0.95),
            token_capacity_override=platform.token_capacity // 2,
            chunked_prefill_tokens=8192,
            fast_path=fast_path,
            tracer=tracer,
        )
        throttled = ServingSimulator(
            platform,
            create_scheduler("weighted-vtc", weights={"user-0000": 2.0}, watermark=0.95),
            token_capacity_override=platform.token_capacity // 4,
            chunked_prefill_tokens=8192,
            fast_path=fast_path,
            throttle=OverloadThrottle(user_rpm=12),
            tracer=tracer,
        )
        return [
            Phase(fair, "run_closed_loop", (closed, 128), len(closed)),
            Phase(throttled, "run_open_loop", (opened,), len(opened)),
        ]


#: fleet_chaos arrival cycle: 80 requests at the burst rate, then 20 at the base rate.
BURST_LENGTH, CYCLE_LENGTH = 80, 100
#: Seconds after a burst starts at which its fault lands (work is in flight by then).
FAULT_DELAY = 2.0


@dataclass(frozen=True)
class FleetChaos(Workload):
    """A routed fleet under bursts, crashes and a straggler."""

    size: int = 1400
    name: ClassVar[str] = "fleet_chaos"
    why: ClassVar[str] = (
        "routing views and decisions per arrival, crash/retry/replacement paths; "
        "over 97% of iterations fused, so the per-token path is bypassed"
    )
    fixed_seeds: ClassVar[tuple[tuple[int, ...], ...]] = ((71, 9), (72, 10), (73, 11))

    def generate(self, seeds):
        """A bursty trace and a fault plan timed against its bursts."""
        workload = assign_bursty_arrivals(
            generate_sharegpt_workload(self.size, seed=seeds[0]),
            base_rate=0.2,
            burst_rate=8.0,
            burst_length=BURST_LENGTH,
            cycle_length=CYCLE_LENGTH,
            seed=seeds[1],
        )
        starts = [workload.requests[i].arrival_time for i in range(0, len(workload), CYCLE_LENGTH)]

        def burst(twelfths: int) -> float:
            return starts[len(starts) * twelfths // 12] + FAULT_DELAY

        plan = FaultPlan(
            crashes=[
                ReplicaCrash(time=burst(1), replica=1),
                ReplicaCrash(time=burst(5), replica=2),
                ReplicaCrash(time=burst(9), replica=0),
            ],
            stragglers=[Straggler(start=burst(3), duration=45.0, replica=3, slowdown=3.0)],
            seed=23,
            retry_policy=RetryPolicy(base_delay=0.1, max_attempts=5, seed=23),
            replacement_warmup=15.0,
        )
        return workload, plan

    def phases(self, inputs, fast_path=True, tracer=None):
        """Four memory-aware-routed replicas with the fault plan attached."""
        workload, plan = inputs
        platform = paper_platform(PLATFORM)
        simulator = ClusterSimulator(
            platform=platform,
            num_replicas=4,
            router="memory-aware",
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.95},
            token_capacity_override=platform.token_capacity // 8,
            chunked_prefill_tokens=8192,
            faults=plan,
            fast_path=fast_path,
            tracer=tracer,
        )
        return [Phase(simulator, "run_open_loop", (workload,), len(workload))]

    def problems(self, results):
        """The fault path must really run: every instance retries aborted work."""
        if sum(result.retries for result in results) <= 0:
            return ["no retries: the crashes aborted no in-flight work"]
        return []


@dataclass(frozen=True)
class FleetSessions(Workload):
    """Multi-turn sessions on a fleet with prefix caches and session affinity."""

    size: int = 360
    name: ClassVar[str] = "fleet_sessions"
    why: ClassVar[str] = (
        "closed-loop sessions clip most jumps at other replicas' clocks: the cluster "
        "event loop and prefix-cache writes dominate"
    )
    fixed_seeds: ClassVar[tuple[tuple[int, ...], ...]] = ((71,), (72,), (73,))

    def generate(self, seeds):
        """Heavy-tail multi-turn sessions."""
        return generate_interactions(
            self.size,
            seed=seeds[0],
            mean_prompt_tokens=256.0,
            mean_output_tokens=128.0,
            min_turns=2,
            max_turns=8,
            think_time=20.0,
            start_spacing=10.0,
        )

    def phases(self, inputs, fast_path=True, tracer=None):
        """Four session-affinity-routed replicas with per-replica prefix caches."""
        platform = paper_platform(PLATFORM)
        simulator = ClusterSimulator(
            platform=platform,
            num_replicas=4,
            router="session-affinity",
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.95},
            token_capacity_override=platform.token_capacity // 8,
            chunked_prefill_tokens=8192,
            prefix_cache_tokens=platform.token_capacity // 16,
            fast_path=fast_path,
            tracer=tracer,
        )
        turns = sum(interaction.num_stages for interaction in inputs)
        return [Phase(simulator, "run_sessions", (inputs,), turns)]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (PfSaturated(), VtcTenants(), FleetChaos(), FleetSessions())
}
