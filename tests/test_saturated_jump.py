"""Saturated-phase event jumps: RNG-stream identity and bit-identical results.

The saturated-phase fast path
(:meth:`repro.engine.engine.InferenceEngine.try_jump_any` with a non-empty
waiting queue) fuses iterations whose admission decisions provably admit
nothing.  Its correctness
rests on three independently testable claims, covered here in order:

1. **Stream identity** — the saturated horizon reads each upcoming
   iteration's draws from :mod:`repro.core.rng_streams`, which rebuilds the
   raw stream of the generator :meth:`schedule` would seed without building
   it (``tests/test_rng_streams.py`` proves the rebuilt draws equal
   ``default_rng``'s); here, the history's cached sorted window that both
   paths sample from is checked.
2. **Scheduler decision equality** — the batched
   :meth:`~repro.core.past_future.PastFutureScheduler.saturated_no_admit_horizon`
   replays exactly the decisions (and the RNG bookkeeping) that sequential
   :meth:`schedule` calls would have produced across a uniform decode window,
   and so does the watermark family's (aggressive, conservative, VTC) proof.
   The oracle has no proof: its saturated windows step.
3. **End-to-end bit-identity** — whole simulations with the saturated jump
   enabled produce byte-identical metrics to the reference loop
   (``fast_path=False``), across workload families, chunked prefill on/off,
   and schedulers, while the jump demonstrably fires.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.perf import cluster_snapshot, run_snapshot
from repro.core import past_future
from repro.core.history import OutputLengthHistory
from repro.core.past_future import PastFutureScheduler
from repro.engine.engine import InferenceEngine
from repro.engine.request import Request
from repro.hardware.platform import paper_platform
from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.conservative import ConservativeScheduler
from repro.schedulers.fair import VirtualTokenCounterScheduler
from repro.schedulers.registry import create_scheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.server import ServingSimulator
from repro.workloads.burstgpt import generate_conversation_trace
from repro.workloads.sharegpt import generate_sharegpt_o1_workload, generate_sharegpt_workload
from repro.workloads.spec import RequestSpec, scale_workload
from repro.workloads.tenants import assign_tenants, generate_tenant_population
from tests.helpers import SchedulerQueue, deliver, grown_request, vtc_counter

PLATFORM = paper_platform("7b-a100")


# ------------------------------------------------------------- stream identity
def test_history_sorted_snapshot_is_cached_until_mutation():
    history = OutputLengthHistory(window_size=8, default_length=64)
    seeded = history.sorted_snapshot()
    np.testing.assert_array_equal(seeded, [64])
    assert history.sorted_snapshot() is seeded  # cached object, no re-sort
    history.record(9)
    history.record(3)
    resorted = history.sorted_snapshot()
    np.testing.assert_array_equal(resorted, [3, 9])
    assert history.sorted_snapshot() is resorted
    history.clear()
    np.testing.assert_array_equal(history.sorted_snapshot(), [64])


# ------------------------------------------------- scheduler decision equality
def _spec(request_id: str, prompt: int, cap: int, user_id: str | None = None) -> RequestSpec:
    return RequestSpec(
        request_id=request_id,
        input_length=prompt,
        output_length=cap,
        max_new_tokens=cap,
        user_id=user_id,
    )


def _decoding_request(
    request_id: str, prompt: int, generated: int, cap: int = 4096
) -> Request:
    return grown_request(_spec(request_id, prompt, cap), generated)


def _queued_request(
    request_id: str,
    prompt: int,
    cap: int = 4096,
    generated: int = 0,
    user_id: str | None = None,
) -> Request:
    return grown_request(_spec(request_id, prompt, cap, user_id), generated, queued=True)


def _grow_uniformly(requests, steps=1):
    for request in requests:
        deliver(request, [0.0] * steps)


#: A shortish history makes sampled predictions small enough that the head
#: eventually fits as residents' conditional tails shrink.
SHORT_HISTORY = (40, 60, 90, 120, 200, 320, 500, 800)


def _assert_horizon_replays_sequential_schedule(
    head_generated: int, num_samples: int, seed: int = 13, history=SHORT_HISTORY
) -> None:
    """Prove a horizon once, replay it with schedule() calls and compare.

    With the default chunk schedule most of these horizons end inside the
    first chunk; callers that patch ``_HORIZON_FIRST_CHUNK`` to 1 also cover
    the arithmetic that carries the seed and the offsets across chunks.
    """
    capacity = 4800

    def build():
        scheduler = PastFutureScheduler(
            reserved_fraction=0.05, seed=seed, num_samples=num_samples
        )
        scheduler.on_run_start()
        for length in history:
            scheduler.history.record(length)
        running = [
            _decoding_request("r0", prompt=900, generated=10),
            _decoding_request("r1", prompt=700, generated=45),
            _decoding_request("r2", prompt=1100, generated=80),
            _decoding_request("r3", prompt=400, generated=5),
        ]
        waiting = [
            _queued_request("q0", prompt=600, generated=head_generated),
            _queued_request("q1", prompt=50),
        ]
        return scheduler, running, waiting

    max_steps = 200
    batched, running, waiting = build()
    batched_queue = SchedulerQueue(batched, waiting)
    horizon = batched.saturated_no_admit_horizon(
        batched_queue.context(running, capacity), max_steps
    )
    # The proof must not touch persistent state until steps are committed.
    assert batched._sample_counter == 0

    sequential, running, waiting = build()
    sequential_queue = SchedulerQueue(sequential, waiting)
    replayed = 0
    while replayed < max_steps:
        admitted = sequential.schedule(sequential_queue.context(running, capacity))
        if admitted:
            break
        replayed += 1
        _grow_uniformly(running)
    assert horizon == replayed

    # Committing the fused steps leaves the batched scheduler's RNG
    # bookkeeping exactly where the sequential replay ended up (minus the
    # admitting consultation itself, which the engine re-runs for real).
    batched.on_saturated_steps_fused(horizon)
    assert batched._sample_counter == horizon
    assert sequential._sample_counter == replayed + (1 if replayed < max_steps else 0)
    if horizon < max_steps:
        # Consulting the batched scheduler for real at the post-window state
        # re-draws the admitting iteration's exact samples and admits.
        admitted = batched.schedule(batched_queue.context(running, capacity))
        assert admitted, "horizon ended on an iteration that does not admit"


@pytest.mark.parametrize("head_generated", [0, 7])
@pytest.mark.parametrize("num_samples", [1, 3])
def test_saturated_horizon_replays_sequential_decisions(head_generated, num_samples):
    """Horizon == index of the first admitting iteration, with identical RNG use.

    The batched scheduler proves a horizon once; the sequential scheduler
    replays the same uniform decode window one schedule() call at a time.
    They must agree on every decision *and* end with the same sample counter,
    so the first post-window consultation draws from the same generator seed.
    (At this capacity the parametrizations cover horizon 0 — the head admits
    immediately — as well as small positive horizons where sampling noise
    lets the head in mid-window.)
    """
    _assert_horizon_replays_sequential_schedule(head_generated, num_samples)


STREAM_EDGES = pytest.mark.parametrize(
    "seed,history",
    [
        (2**32 + 13, SHORT_HISTORY),  # two 32-bit entropy words per stream seed
        (13, ()),  # window == [default_length]: the head's choice draws nothing
        (2**63 - 1, SHORT_HISTORY),  # stream seeds past 2**63
    ],
    ids=["seed-2^32", "empty-history", "seed-2^63"],
)


@pytest.mark.parametrize("head_generated", [0, 7])
@STREAM_EDGES
def test_saturated_horizon_replays_sequential_decisions_at_stream_edges(
    head_generated, seed, history
):
    """The rebuilt streams agree with schedule()'s generators at their edges.

    ``num_samples=3`` leaves the head's ``choice`` half of one raw output.
    """
    _assert_horizon_replays_sequential_schedule(head_generated, 3, seed, history)


@pytest.mark.parametrize("head_generated", [0, 7])
@STREAM_EDGES
def test_saturated_horizon_replays_sequential_decisions_at_stream_edges_from_one_row_chunks(
    head_generated, seed, history, monkeypatch
):
    """The same stream edges with a first chunk of one row, so every horizon crosses chunks."""
    monkeypatch.setattr(past_future, "_HORIZON_FIRST_CHUNK", 1)
    _assert_horizon_replays_sequential_schedule(head_generated, 3, seed, history)


def test_saturated_horizon_spans_full_window_when_head_cannot_fit(monkeypatch):
    """A head larger than the leftover budget blocks across every chunk."""
    chunk_rows = []
    real_peaks = past_future.batched_peak_with_candidate

    def counting_peaks(current, remaining, candidate_current, candidate_remaining):
        chunk_rows.append(len(current))
        return real_peaks(current, remaining, candidate_current, candidate_remaining)

    monkeypatch.setattr(past_future, "batched_peak_with_candidate", counting_peaks)
    scheduler = PastFutureScheduler(reserved_fraction=0.05, seed=13, num_samples=2)
    scheduler.on_run_start()
    for length in (40, 60, 90, 120, 200, 320, 500, 800):
        scheduler.history.record(length)
    running = [
        _decoding_request("r0", prompt=900, generated=10),
        _decoding_request("r1", prompt=700, generated=45),
    ]
    # 3200 prompt tokens + the 1655-token batch exceed the 4560 budget on
    # current tokens alone, so no sampled remaining can let the head in.
    waiting = [_queued_request("q0", prompt=3200)]
    capacity = 4800
    max_steps = 150  # a first chunk of 32 rows, then doubling: 32 + 64 + 54
    queue = SchedulerQueue(scheduler, waiting)
    horizon = scheduler.saturated_no_admit_horizon(queue.context(running, capacity), max_steps)
    assert horizon == max_steps
    # One Eq. 2-4 call per chunk: the proof costs three chunks, not one per row.
    assert chunk_rows == [32, 64, 54]
    replayed = 0
    while replayed < max_steps:
        assert not scheduler.schedule(queue.context(running, capacity))
        replayed += 1
        _grow_uniformly(running)


def test_saturated_horizon_zero_when_empty_batch_or_queue():
    scheduler = PastFutureScheduler(seed=3)
    scheduler.on_run_start()
    running = [_decoding_request("r0", prompt=100, generated=4)]
    waiting = [_queued_request("q0", prompt=100)]
    horizon = scheduler.saturated_no_admit_horizon
    queue = SchedulerQueue(scheduler)
    assert horizon(queue.context(running, token_capacity=4096), 50) == 0
    queue.submit(waiting[0])
    assert horizon(queue.context(token_capacity=4096), 50) == 0
    assert horizon(queue.context(running, token_capacity=4096), 0) == 0


def test_conservative_horizon_is_all_or_nothing():
    scheduler = ConservativeScheduler()
    running = [_decoding_request("r0", prompt=1000, generated=10, cap=2000)]
    blocked = [_queued_request("q0", prompt=1500, cap=2000)]
    tiny = [_queued_request("q1", prompt=10, cap=100)]
    # Worst-case footprints are constant: 3000 committed + 3500 > 4096 forever.
    horizon = scheduler.saturated_no_admit_horizon
    assert horizon(SchedulerQueue(scheduler, blocked).context(running, token_capacity=4096), 75) == 75
    # 3000 + 110 fits, so the very next iteration admits: no proof possible.
    assert horizon(SchedulerQueue(scheduler, tiny).context(running, token_capacity=4096), 75) == 0


def _assert_horizon_matches_sequential_schedule(queue, running, capacity, max_steps):
    """The proven horizon == the count of leading no-admit schedule() calls."""
    scheduler = queue.scheduler
    horizon = scheduler.saturated_no_admit_horizon(queue.context(running, capacity), max_steps)
    replayed = 0
    while replayed < max_steps:
        if scheduler.schedule(queue.context(running, capacity)):
            break
        replayed += 1
        _grow_uniformly(running)
    assert horizon == replayed


def _watermark_case(name):
    """A blocked first candidate followed by one that would fit on its own.

    Admission must stop at the first misfit, so nothing is admitted for the
    whole window, although the second candidate fits.  For ``vtc`` the first
    candidate is *not* the queue front: the front's tenant was already charged,
    so the lowest-counter pick is the large request queued behind it.
    """
    running = [
        _decoding_request("r0", prompt=500, generated=10, cap=700),
        _decoding_request("r1", prompt=800, generated=20, cap=700),
    ]
    blocked = _queued_request("q-big", prompt=700, cap=500, user_id="light")
    small = _queued_request("q-small", prompt=10, cap=100, user_id="heavy")
    if name == "conservative":
        # Worst cases: 1200 + 1500 committed; 2700 + 1200 > 3000, 2700 + 110 fits.
        return SchedulerQueue(ConservativeScheduler(), [blocked, small]), running, 3000
    if name == "aggressive":
        # 1330 current tokens; 1330 + 700 > 1900 (95% of 2000), + 10 fits.
        return SchedulerQueue(AggressiveScheduler(watermark=0.95), [blocked, small]), running, 2000
    scheduler = VirtualTokenCounterScheduler(watermark=0.95)
    scheduler.on_run_start()
    # "heavy" is charged while still active, so "light" is never lifted.
    served = _queued_request("served", prompt=300, user_id="heavy")
    queue = SchedulerQueue(scheduler, [served, small, blocked])
    queue.dequeue(served)
    scheduler.on_request_finished(served, 0.0)
    assert vtc_counter(scheduler, "heavy") > vtc_counter(scheduler, "light")
    assert list(queue.waiting) == [small, blocked]
    return queue, running, 2000


@pytest.mark.parametrize("name", ["aggressive", "conservative", "vtc"])
def test_watermark_horizon_matches_sequential_schedule(name):
    queue, running, capacity = _watermark_case(name)
    _assert_horizon_matches_sequential_schedule(queue, running, capacity, max_steps=60)


# ------------------------------------------------------- end-to-end identity
CAPACITY = 2048

SATURATED_WORKLOADS = {
    "sharegpt": lambda: scale_workload(generate_sharegpt_workload(80, seed=3), 0.25),
    "sharegpt-o1": lambda: scale_workload(generate_sharegpt_o1_workload(50, seed=5), 0.125),
    "burstgpt-conversation": lambda: scale_workload(
        generate_conversation_trace(80, seed=7), 0.25
    ),
}


def _run_single(scheduler_name, scheduler_kwargs, workload, *, chunked, fast_path, clients):
    simulator = ServingSimulator(
        PLATFORM,
        create_scheduler(scheduler_name, **scheduler_kwargs),
        token_capacity_override=CAPACITY,
        chunked_prefill_tokens=chunked,
        fast_path=fast_path,
    )
    result = simulator.run_closed_loop(workload, num_clients=clients)
    return simulator, result


@pytest.mark.parametrize("workload_name", list(SATURATED_WORKLOADS))
@pytest.mark.parametrize("chunked", [None, 256])
def test_saturated_past_future_bit_identical(workload_name, chunked):
    """Deep saturation (clients >> capacity): fast == reference, bit for bit."""
    build = SATURATED_WORKLOADS[workload_name]
    fast_sim, fast = _run_single(
        "past-future",
        {"reserved_fraction": 0.05, "seed": 11, "num_samples": 2},
        build(),
        chunked=chunked,
        fast_path=True,
        clients=48,
    )
    ref_sim, reference = _run_single(
        "past-future",
        {"reserved_fraction": 0.05, "seed": 11, "num_samples": 2},
        build(),
        chunked=chunked,
        fast_path=False,
        clients=48,
    )
    assert run_snapshot(fast) == run_snapshot(reference)
    # The RNG bookkeeping ends at the same position even though the fast run
    # consulted the scheduler far fewer times.
    assert fast_sim.engine.scheduler._sample_counter == ref_sim.engine.scheduler._sample_counter


def test_saturated_jump_actually_fires_and_respects_bisect_flag(monkeypatch):
    """The macro-step fires under saturation, and fast_path=False disables it."""
    workload = SATURATED_WORKLOADS["sharegpt"]()
    simulator = ServingSimulator(
        PLATFORM,
        create_scheduler("past-future", seed=1, num_samples=2),
        token_capacity_override=CAPACITY,
        fast_path=True,
    )
    fused = []
    original = simulator.engine.try_jump_any

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        if result is not None and result.source == "saturated":
            fused.append(result.steps)
        return result

    simulator.engine.try_jump_any = spy
    simulator.run_closed_loop(workload, num_clients=48)
    assert fused, "no saturated macro-step was taken under deep saturation"
    assert max(fused) >= 2

    # The simulators' flag is the whole bisection switch: with it off,
    # neither ever asks an engine to jump, so every iteration is step().
    attempts = []

    def never(self, *args, **kwargs):
        attempts.append(self)
        return None

    monkeypatch.setattr(InferenceEngine, "try_jump_any", never)
    ServingSimulator(
        PLATFORM,
        create_scheduler("past-future", seed=1, num_samples=2),
        token_capacity_override=CAPACITY,
        fast_path=False,
    ).run_closed_loop(SATURATED_WORKLOADS["sharegpt"](), num_clients=48)
    ClusterSimulator(
        platform=PLATFORM,
        num_replicas=2,
        scheduler_name="past-future",
        scheduler_kwargs={"seed": 1, "num_samples": 2},
        token_capacity_override=CAPACITY,
        fast_path=False,
    ).run_closed_loop(SATURATED_WORKLOADS["sharegpt"](), num_clients=48)
    assert attempts == []


def test_one_entry_point_makes_both_jumps_and_pins_fallback_reasons():
    """``try_jump_any`` picks the jump from the queue and names every fallback.

    ``BENCH_core.json`` jump blocks and the bench's horizon-clip counter read
    these reason keys, so renaming one is a visible change.
    """
    engine = InferenceEngine(
        PLATFORM, create_scheduler("aggressive", watermark=0.95), token_capacity_override=CAPACITY
    )
    assert engine.try_jump_any(0.0) is None  # silent:no-window (nothing resident)
    engine.submit(_queued_request("a", prompt=32, cap=100))
    assert engine.try_jump_any(0.0) is None  # saturated:not-uniform (nothing decoding)
    time = engine.step(0.0).end_time

    # Empty queue: the silent jump.
    assert engine.try_jump_any(time, max_steps=1) is None
    assert engine.try_jump_any(time, horizon=time) is None
    silent = engine.try_jump_any(time, max_steps=3)  # leaves a window for the saturated jump
    assert silent is not None and silent.source == "silent" and silent.steps == 3
    time = silent.end_time

    # A head that never fits the watermark keeps the queue non-empty: saturated.
    engine.submit(_queued_request("b", prompt=CAPACITY - 8, cap=8), time)
    assert engine.try_jump_any(time, max_steps=1) is None
    assert engine.try_jump_any(time, horizon=time) is None
    engine.scheduler.saturated_no_admit_horizon = lambda context, max_steps: 0
    assert engine.try_jump_any(time) is None
    del engine.scheduler.saturated_no_admit_horizon
    saturated = engine.try_jump_any(time)
    assert saturated is not None and saturated.source == "saturated" and saturated.steps >= 2

    stats = engine.jump_stats
    assert stats.fallback_reasons == {
        "silent:no-window": 1,
        "silent:step-budget": 1,
        "silent:horizon-clip": 1,
        "saturated:not-uniform": 1,
        "saturated:step-budget": 1,
        "saturated:horizon-clip": 1,
        "saturated:scheduler-horizon": 1,
    }
    assert (stats.silent_jumps, stats.saturated_jumps) == (1, 1)

    # Every attempt either jumps or records one fallback reason.
    def attempts(kind):
        fallbacks = sum(n for reason, n in stats.fallback_reasons.items() if reason.startswith(f"{kind}:"))
        return getattr(stats, f"{kind}_jumps") + fallbacks

    assert (attempts("silent"), attempts("saturated")) == (4, 5)


@pytest.mark.parametrize("scheduler_name,kwargs", [
    ("aggressive", {"watermark": 0.95}),
    ("conservative", {}),
    ("oracle", {}),
    ("vtc", {"watermark": 0.95}),
    ("weighted-vtc", {"weights": {"user-0000": 2.0}, "watermark": 0.95}),
    # Memory alone admits 3 at a time here, so this static batch binds and the
    # saturated window is proven by the full batch.
    ("conservative", {"max_running_requests": 2}),
])
def test_saturated_baseline_schedulers_bit_identical(scheduler_name, kwargs):
    # Tenants only matter to the VTC policies; the FCFS baselines ignore them.
    population = generate_tenant_population(8, num_apps=2, abusive_users=1, abusive_share=0.5)
    workload = assign_tenants(SATURATED_WORKLOADS["sharegpt"](), population, seed=1)
    fast_sim, fast = _run_single(
        scheduler_name, kwargs, workload, chunked=None, fast_path=True, clients=48
    )
    _, reference = _run_single(
        scheduler_name, kwargs, workload, chunked=None, fast_path=False, clients=48
    )
    assert run_snapshot(fast) == run_snapshot(reference)
    stats = fast_sim.engine.jump_stats
    if scheduler_name == "oracle":
        # No no-admit proof: every saturated window falls back to stepping.
        assert stats.saturated_jumps == 0
        assert stats.fallback_reasons.get("saturated:scheduler-horizon", 0) > 0
    else:
        assert stats.saturated_jumps > 0


def test_saturated_cluster_bit_identical():
    """Fleet saturation: per-replica saturated jumps stay fleet-bit-identical."""
    workload = scale_workload(generate_sharegpt_workload(90, seed=13), 0.25)

    def build(fast_path):
        return ClusterSimulator(
            platform=PLATFORM,
            num_replicas=2,
            router="memory-aware",
            scheduler_name="past-future",
            scheduler_kwargs={"reserved_fraction": 0.05, "seed": 11, "num_samples": 2},
            token_capacity_override=CAPACITY,
            fast_path=fast_path,
        )

    fast = build(True).run_closed_loop(workload, num_clients=24)
    reference = build(False).run_closed_loop(workload, num_clients=24)
    assert cluster_snapshot(fast) == cluster_snapshot(reference)
