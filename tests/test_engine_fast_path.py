"""Fast-path equivalence: event-jump macro-steps vs the reference loop.

The engine's event-jump fast path (``fast_path=True``, the default) must be
an *exact* optimisation: every externally visible quantity — per-token
delivery timestamps, admission/eviction/finish times, engine statistics, and
the per-step memory timeline — must be bit-identical to the reference
one-token-per-iteration loop (``fast_path=False``).  These tests run the same
seeded workloads through both loops across workload families, chunked prefill
on/off, and closed-loop client counts, and compare everything.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.analysis.perf import cluster_snapshot, run_snapshot
from repro.core.future_memory import peak_future_memory
from repro.engine.cost_model import CostModel, StepWork
from repro.engine.engine import InferenceEngine
from repro.engine.request import Request, RequestState
from repro.hardware.platform import paper_platform
from repro.schedulers.registry import create_scheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import FaultPlan, ReplicaCrash, SlowdownCostModel
from repro.serving.server import ServingSimulator
from repro.workloads.arrivals import assign_bursty_arrivals
from repro.workloads.burstgpt import generate_api_trace, generate_conversation_trace
from repro.workloads.sharegpt import generate_sharegpt_o1_workload, generate_sharegpt_workload
from repro.workloads.spec import RequestSpec, scale_workload
from tests.helpers import assert_pool_ledger, cache_entries


PLATFORM = paper_platform("7b-a100")
#: Small enough to force admission pressure and (for aggressive) evictions.
CAPACITY = 2048


def single_engine_runs(scheduler_name, scheduler_kwargs, workload, *,
                       chunked, clients):
    results = []
    for fast_path in (True, False):
        simulator = ServingSimulator(
            PLATFORM,
            create_scheduler(scheduler_name, **scheduler_kwargs),
            token_capacity_override=CAPACITY,
            chunked_prefill_tokens=chunked,
            fast_path=fast_path,
        )
        results.append(simulator.run_closed_loop(workload, num_clients=clients))
    return results


WORKLOADS = {
    "sharegpt": lambda: scale_workload(generate_sharegpt_workload(60, seed=3), 0.25),
    "sharegpt-o1": lambda: scale_workload(generate_sharegpt_o1_workload(40, seed=5), 0.125),
    "burstgpt-conversation": lambda: scale_workload(
        generate_conversation_trace(60, seed=7), 0.25
    ),
    "burstgpt-api": lambda: scale_workload(generate_api_trace(60, seed=9), 0.25),
}


@pytest.mark.parametrize("workload_name", list(WORKLOADS))
@pytest.mark.parametrize("clients", [1, 16])
@pytest.mark.parametrize("chunked", [None, 256])
def test_past_future_bit_identical(workload_name, clients, chunked):
    """The tentpole guarantee, across workloads x client counts x prefill modes.

    One client leaves a single resident request, so every jump runs to that
    request's finish; sixteen keep the pool under admission pressure.
    """
    workload = WORKLOADS[workload_name]()
    fast, reference = single_engine_runs(
        "past-future",
        {"reserved_fraction": 0.05, "seed": 11, "num_samples": 2},
        workload,
        chunked=chunked,
        clients=clients,
    )
    assert run_snapshot(fast) == run_snapshot(reference)


@pytest.mark.parametrize("scheduler_name,kwargs", [
    ("aggressive", {"watermark": 0.95}),
    ("conservative", {}),
    ("oracle", {}),
])
def test_other_schedulers_bit_identical(scheduler_name, kwargs):
    """Eviction-heavy (aggressive) and baseline schedulers agree too."""
    workload = WORKLOADS["sharegpt"]()
    fast, reference = single_engine_runs(
        scheduler_name, kwargs, workload, chunked=None, clients=24
    )
    assert run_snapshot(fast) == run_snapshot(reference)
    if scheduler_name == "aggressive":
        # The scenario must actually exercise the eviction path, otherwise
        # this test is weaker than it claims.
        assert reference.engine_stats.total_evictions > 0


def test_fast_path_actually_jumps():
    """Guard against the fast path silently degrading to the reference loop."""
    workload = WORKLOADS["sharegpt"]()
    simulator = ServingSimulator(
        PLATFORM,
        create_scheduler("past-future", seed=1),
        token_capacity_override=CAPACITY,
        fast_path=True,
    )
    jumped = []
    original = simulator.engine.try_jump_any

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        if result is not None and result.source == "silent":
            jumped.append(result.steps)
        return result

    simulator.engine.try_jump_any = spy
    simulator.run_closed_loop(workload, num_clients=8)
    assert jumped, "no silent macro-step was ever taken on a light workload"
    assert max(jumped) >= 2


@pytest.mark.parametrize("closed_loop", [True, False])
def test_cluster_bit_identical(closed_loop):
    """Fleet runs agree under both client models (routing reads snapshots)."""
    workload = scale_workload(generate_sharegpt_workload(80, seed=13), 0.25)

    def build(fast_path):
        return ClusterSimulator(
            platform=PLATFORM,
            num_replicas=3,
            router="memory-aware",
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.95},
            token_capacity_override=CAPACITY,
            fast_path=fast_path,
        )

    if closed_loop:
        fast = build(True).run_closed_loop(workload, num_clients=12)
        reference = build(False).run_closed_loop(workload, num_clients=12)
    else:
        stamped = assign_bursty_arrivals(
            workload, base_rate=2.0, burst_rate=40.0, burst_length=30, cycle_length=40, seed=3
        )
        fast = build(True).run_open_loop(stamped)
        reference = build(False).run_open_loop(stamped)
    assert cluster_snapshot(fast) == cluster_snapshot(reference)


def test_autoscaled_cluster_bit_identical():
    """Elastic fleets (decision/warm-up events bound the jumps) agree."""
    from repro.serving.autoscale import Autoscaler, create_autoscale_policy

    workload = assign_bursty_arrivals(
        scale_workload(generate_sharegpt_workload(80, seed=17), 0.25),
        base_rate=1.0,
        burst_rate=20.0,
        burst_length=30,
        cycle_length=40,
        seed=5,
    )

    def build(fast_path):
        return ClusterSimulator(
            platform=PLATFORM,
            num_replicas=2,
            router="least-outstanding",
            scheduler_name="aggressive",
            scheduler_kwargs={"watermark": 0.95},
            token_capacity_override=CAPACITY,
            autoscaler=Autoscaler(
                policy=create_autoscale_policy("reactive", scale_up_threshold=0.25),
                interval=0.5,
                max_replicas=4,
                warmup_delay=1.5,
                sample_window=3.0,
            ),
            fast_path=fast_path,
        )

    fast = build(True).run_open_loop(workload)
    reference = build(False).run_open_loop(workload)
    assert cluster_snapshot(fast) == cluster_snapshot(reference)


# ------------------------------------------------------------- building blocks
#: Iterations a jump from :func:`_decoding_engine` may fuse: every resident
#: has 199 tokens left, and the iteration delivering the last one finishes it.
DECODE_BOUND = 198

COST_MODELS = {
    "baseline": lambda: CostModel(PLATFORM),
    "speed-factor": lambda: CostModel(PLATFORM, speed_factor=1.37),
    "slowdown": lambda: SlowdownCostModel(CostModel(PLATFORM), 2.5),
    "slowdown-speed-factor": lambda: SlowdownCostModel(CostModel(PLATFORM, speed_factor=0.83), 1.3),
}


def _decoding_engine(cost_model):
    """Three decoding residents in a roomy pool, after their prefill step.

    Returns the engine and the clock after that step; the prefill ran on the
    default cost model and every later iteration runs on ``cost_model``.
    """
    engine = InferenceEngine(PLATFORM, create_scheduler("aggressive", watermark=1.0))
    for index in range(3):
        spec = RequestSpec(
            request_id=f"r{index}", input_length=20 + index, output_length=200, max_new_tokens=200
        )
        engine.submit(Request(spec=spec, arrival_time=0.0))
    time = engine.step(0.0).end_time
    assert engine.num_running == 3 and not engine.waiting
    engine.cost_model = cost_model
    return engine, time


def _step_seconds_chain(engine, time, steps):
    """End times of ``steps`` reference decode iterations: ``time += step_seconds(...)``."""
    batch_size = engine.num_running
    context = sum(r.current_context_tokens for r in engine.batch)
    ends = []
    for j in range(steps):
        work = StepWork(decode_requests=batch_size, decode_context_tokens=context + j * batch_size)
        time += engine.cost_model.step_seconds(work)
        ends.append(time)
    return ends


def _assert_jump_follows_chain(engine, jump, chain):
    """The jump fused ``len(chain)`` iterations ending at exactly ``chain``'s floats."""
    steps = len(chain)
    assert jump.steps == steps
    assert jump.end_time == chain[-1]
    assert engine.memory_timeline.times[-steps:] == chain
    for request in engine.batch:
        assert request.token_times[-steps:] == chain


@pytest.mark.parametrize("name", list(COST_MODELS))
def test_jump_end_times_equal_the_step_seconds_chain(name):
    """Unclipped, a jump stops at its proof bound on the reference chain's floats."""
    engine, time = _decoding_engine(COST_MODELS[name]())
    chain = _step_seconds_chain(engine, time, DECODE_BOUND)
    _assert_jump_follows_chain(engine, engine.try_jump_any(time), chain)


@pytest.mark.parametrize("name", list(COST_MODELS))
@pytest.mark.parametrize("limit", ["horizon", "max_time", "horizon-first", "max-time-first"])
@pytest.mark.parametrize("nudge, fused", [(-math.inf, 40), (0, 40), (math.inf, 41)])
def test_jump_stops_after_the_first_end_reaching_the_clip(name, limit, nudge, fused):
    """The last fused end is the first one at or past ``min(horizon, max_time)``.

    The clip sits one ulp below, exactly at, or one ulp above the 40th end.
    """
    engine, time = _decoding_engine(COST_MODELS[name]())
    chain = _step_seconds_chain(engine, time, DECODE_BOUND)
    clip = chain[39] if nudge == 0 else math.nextafter(chain[39], nudge)
    later = chain[100]
    horizon, max_time = {
        "horizon": (clip, None),
        "max_time": (None, clip),
        "horizon-first": (clip, later),
        "max-time-first": (later, clip),
    }[limit]
    jump = engine.try_jump_any(time, horizon=horizon, max_time=max_time)
    _assert_jump_follows_chain(engine, jump, chain[:fused])


@pytest.mark.parametrize("name", list(COST_MODELS))
def test_jump_stops_at_a_step_budget_below_the_clip(name):
    engine, time = _decoding_engine(COST_MODELS[name]())
    chain = _step_seconds_chain(engine, time, DECODE_BOUND)
    jump = engine.try_jump_any(time, horizon=chain[-1], max_steps=25)
    _assert_jump_follows_chain(engine, jump, chain[:25])


def test_clipped_jump_draws_only_the_iterations_it_fuses(monkeypatch):
    """A jump the horizon clips at k iterations computes k durations, not its bound's.

    The proof bound is 198 iterations; the horizon sits on the 30th end.
    """
    draws = 0
    original = CostModel.decode_durations

    def counting(self, decode_requests, start_context_tokens):
        nonlocal draws
        for duration in original(self, decode_requests, start_context_tokens):
            draws += 1
            yield duration

    monkeypatch.setattr(CostModel, "decode_durations", counting)
    engine, time = _decoding_engine(CostModel(PLATFORM))
    chain = _step_seconds_chain(engine, time, DECODE_BOUND)
    jump = engine.try_jump_any(time, horizon=chain[29])
    _assert_jump_follows_chain(engine, jump, chain[:30])
    assert draws == 30


#: Tokens a parked prefix holds in the pool-bound engines below.
PARKED_TOKENS = 220


def _pool_bound_engine(residents):
    """An all-decoding batch whose next jump the pool, not a finish, bounds.

    A cached prefix of ``PARKED_TOKENS`` sits in the pool next to
    ``residents`` requests that each hold 21 tokens and have 199 left to
    generate; the pool leaves room for ``7 * residents + 3`` more tokens.
    Returns the engine and the clock after its first (prefill) step.
    """
    engine = InferenceEngine(
        PLATFORM,
        create_scheduler("aggressive", watermark=1.0),
        token_capacity_override=28 * residents + 3 + PARKED_TOKENS,
        prefix_cache_tokens=PARKED_TOKENS,
    )
    engine.pool.allocate(PARKED_TOKENS)
    engine.prefix_cache.retain("parked", 0, PARKED_TOKENS)
    for index in range(residents):
        spec = RequestSpec(
            request_id=f"r{index}", input_length=20, output_length=200, max_new_tokens=200
        )
        engine.submit(Request(spec=spec, arrival_time=0.0))
    time = engine.step(0.0).end_time
    assert engine.num_running == residents and not engine.waiting
    assert engine.pool.free_tokens == 7 * residents + 3
    return engine, time


@pytest.mark.parametrize("residents", [1, 4, 16])
def test_pool_max_uniform_growth_is_exact(residents):
    """A pool-bound jump fuses exactly ``free_tokens // batch_size`` iterations.

    Every resident fits that many more tokens; afterwards fewer than one per
    resident are free, so the next jump attempt falls back to ``step()``.
    """
    engine, time = _pool_bound_engine(residents)
    expected = engine.pool.free_tokens // residents
    jump = engine.try_jump_any(time)
    assert jump is not None and jump.steps == expected
    assert engine.pool.free_tokens < residents
    assert engine.try_jump_any(jump.end_time) is None
    assert len(engine.prefix_cache) == 1
    assert_pool_ledger(engine)


@pytest.mark.parametrize("residents", [1, 4, 16])
def test_pool_bulk_append_matches_sequential(residents):
    """A jump's one bulk allocation leaves the reference loop's rows.

    The fused iterations' memory-timeline rows and token timestamps equal
    those of the same number of ``step()`` calls, each allocating one token
    per resident.
    """
    fast, time = _pool_bound_engine(residents)
    steps = fast.try_jump_any(time).steps
    reference, time = _pool_bound_engine(residents)
    for _ in range(steps):
        time = reference.step(time).end_time
    assert dataclasses.asdict(fast.memory_timeline) == dataclasses.asdict(reference.memory_timeline)
    assert [r.token_times for r in fast.batch] == [r.token_times for r in reference.batch]
    assert fast.pool.used_tokens == reference.pool.used_tokens
    assert_pool_ledger(fast)
    assert_pool_ledger(reference)


def test_pool_incremental_used_tokens_stays_consistent():
    """The O(1) counter always agrees with a from-scratch sum over its owners.

    The owners are the residents (their ``current_context_tokens``) and the
    parked prefix; the sum is checked after a prefill step, a jump, a
    single step and a crash.
    """
    engine, time = _pool_bound_engine(4)

    def check():
        expected = sum(r.current_context_tokens for r in engine.batch)
        expected += sum(e.tokens for e in cache_entries(engine.prefix_cache))
        assert engine.pool.used_tokens == expected
        assert engine.pool.free_tokens == engine.pool.token_capacity - expected

    check()
    time = engine.try_jump_any(time).end_time
    check()
    time = engine.step(time).end_time
    check()
    engine.abort_all(time)
    check()
    assert engine.pool.used_tokens == 0


# ------------------------------------------------------- batch profile invariant
def _profile_from_batch(engine):
    """The jump's batch profile recomputed from scratch (``None``: not uniform)."""
    requests = engine.batch
    if not requests or any(r.state is not RequestState.DECODING for r in requests):
        return None
    current = [r.current_context_tokens for r in requests]
    remaining = [min(r.remaining_true_tokens, r.remaining_cap_tokens) for r in requests]
    return (len(requests), sum(current), peak_future_memory(current, remaining), min(remaining))


@pytest.fixture
def profile_checks(monkeypatch):
    """Assert after every step, jump and abort that the profile is current.

    Nothing may change the batch without refreshing the profile: the jump
    trusts it without a staleness check.  Returns the list of checked calls.
    """
    checked = []

    def checking(name):
        original = getattr(InferenceEngine, name)

        def wrapper(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            assert self._silent_cache == _profile_from_batch(self), name
            checked.append(name)
            return result

        monkeypatch.setattr(InferenceEngine, name, wrapper)

    for name in ("step", "try_jump_any", "abort_all"):
        checking(name)
    return checked


@pytest.mark.parametrize("fast_path", [True, False])
@pytest.mark.parametrize("workload_name", list(WORKLOADS))
@pytest.mark.parametrize("scheduler_name,kwargs", [
    ("past-future", {"reserved_fraction": 0.05, "seed": 11, "num_samples": 2}),
    ("aggressive", {"watermark": 0.95}),
])
def test_profile_is_current_after_every_step_and_jump(
    profile_checks, fast_path, workload_name, scheduler_name, kwargs
):
    simulator = ServingSimulator(
        PLATFORM,
        create_scheduler(scheduler_name, **kwargs),
        token_capacity_override=CAPACITY,
        chunked_prefill_tokens=256,
        fast_path=fast_path,
    )
    simulator.run_closed_loop(WORKLOADS[workload_name](), num_clients=16)
    assert "step" in profile_checks
    assert ("try_jump_any" in profile_checks) == fast_path


@pytest.mark.parametrize("fast_path", [True, False])
def test_profile_is_current_across_fleet_crashes(profile_checks, fast_path):
    """Crashes abort whole batches mid-run; the profile must follow."""
    workload = assign_bursty_arrivals(
        scale_workload(generate_sharegpt_workload(80, seed=13), 0.25),
        base_rate=2.0,
        burst_rate=40.0,
        burst_length=30,
        cycle_length=40,
        seed=3,
    )
    result = ClusterSimulator(
        platform=PLATFORM,
        num_replicas=3,
        router="memory-aware",
        scheduler_name="aggressive",
        scheduler_kwargs={"watermark": 0.95},
        token_capacity_override=CAPACITY,
        faults=FaultPlan(crashes=[ReplicaCrash(time=2.0, replica=0), ReplicaCrash(time=4.0, replica=1)]),
        fast_path=fast_path,
    ).run_open_loop(workload)
    assert result.completed
    assert "abort_all" in profile_checks
    # One timeline row per iteration, by either path, on every replica: this
    # is what lets row ``i`` stand for iteration ``i + 1`` without a step column.
    for replica in result.replicas:
        stats = replica.engine_stats
        steps = replica.jump_stats.total_steps
        assert len(replica.memory_timeline) == steps == stats.decoding_steps + stats.idle_steps
