"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import dataclasses
import heapq
import math
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import past_future, rng_streams
from repro.core.future_memory import (
    FutureMemoryIndex,
    batched_peak_with_candidate,
    memory_timeline,
    peak_future_memory,
)
from repro.core.history import OutputLengthHistory
from repro.core.predictor import OutputLengthPredictor, aggregate_samples, conditional_prediction_samples
from repro.engine.engine import InferenceEngine
from repro.engine.request import Request, RequestState
from repro.hardware.platform import paper_platform
from repro.memory.block_manager import BlockKVCachePool, OutOfMemoryError
from repro.memory.prefix_cache import PrefixCache
from repro.metrics.similarity import cosine_similarity, default_bin_edges, length_histogram
from repro.obs.tracer import RingTracer
from repro.schedulers.aggressive import AggressiveScheduler
from repro.schedulers.conservative import ConservativeScheduler
from repro.schedulers.fair import VirtualTokenCounterScheduler, WeightedServiceCounterScheduler
from repro.serving.autoscale import Autoscaler, create_autoscale_policy
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import FaultPlan, ReplicaCrash
from repro.serving.routing import ROUTER_REGISTRY, MemoryAwareRouter, ReplicaView
from repro.serving.throttle import OverloadThrottle
from repro.workloads.distributions import UniformLengthSpec, generate_uniform_workload
from repro.workloads.interactions import (
    Interaction,
    InteractionLoadGenerator,
    InteractionStage,
    generate_interactions,
)
from repro.workloads.spec import RequestSpec
from repro.workloads.tenants import assign_tenants, generate_tenant_population
from tests.conftest import TINY_CAPACITY
from tests.helpers import (
    SchedulerQueue,
    assert_conservation,
    assert_no_late_arrivals,
    assert_pool_ledger,
    assert_rng_stream_identity,
    cache_entries,
    grown_request,
    history_of,
    record,
    reference_peak,
)

#: One request of a batch: ``(current tokens, remaining tokens)``.
entry_strategy = st.tuples(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
entries_strategy = st.lists(entry_strategy, min_size=0, max_size=30)
#: Entries with remaining lengths from a narrow range, so ties are common.
tied_entry_strategy = st.tuples(st.integers(0, 300), st.integers(0, 4))
lengths_strategy = st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=200)


def columns(entries):
    """``(current, remaining)`` columns of a list of entries."""
    return [c for c, _ in entries], [r for _, r in entries]


def peak_of(entries) -> int:
    return peak_future_memory(*columns(entries))


def padded_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, width)`` current and remaining arrays, short rows padded with ``(0, 0)``."""
    width = max((len(row) for row in rows), default=0)
    current = np.zeros((len(rows), width), dtype=np.int64)
    remaining = np.zeros((len(rows), width), dtype=np.int64)
    for k, row in enumerate(rows):
        current[k, : len(row)], remaining[k, : len(row)] = columns(row)
    return current, remaining


class TestFutureMemoryProperties:
    @given(entries=entries_strategy)
    def test_peak_bounded_between_current_sum_and_final_sum(self, entries):
        peak = peak_of(entries)
        current_sum = sum(c for c, _ in entries)
        final_sum = sum(c + r for c, r in entries)
        assert current_sum <= peak <= final_sum or not entries

    @given(entries=entries_strategy)
    def test_peak_equals_timeline_maximum(self, entries):
        assert peak_of(entries) == max(memory_timeline(*columns(entries)))

    @given(entries=st.lists(entry_strategy, min_size=1, max_size=20), seed=st.integers(0, 100))
    def test_permutation_invariance(self, entries, seed):
        rng = np.random.default_rng(seed)
        shuffled = [entries[i] for i in rng.permutation(len(entries))]
        assert peak_of(entries) == peak_of(shuffled)

    @given(entries=entries_strategy, extra=entry_strategy)
    def test_adding_a_request_never_lowers_the_peak(self, entries, extra):
        assert peak_of(entries + [extra]) >= peak_of(entries)

    @given(entries=st.one_of(entries_strategy, st.lists(tied_entry_strategy, max_size=12)))
    def test_scalar_kernel_equals_reference_and_batched_row(self, entries):
        """One batch's peak: the scalar kernel, the plain-Python spec and a numpy row agree.

        The batched row holds the batch minus its last entry, which rides as
        the candidate; an empty batch rides a ``(0, 0)`` candidate.
        """
        peak = peak_of(entries)
        assert type(peak) is int
        assert peak == reference_peak(*columns(entries))
        *batch, (candidate_current, candidate_remaining) = entries or [(0, 0)]
        row = batched_peak_with_candidate(*padded_rows([batch]), candidate_current, [candidate_remaining])
        assert row.tolist() == [peak]

    @given(rows=st.lists(st.lists(entry_strategy, max_size=12), min_size=1, max_size=6))
    def test_rows_equal_one_dimensional_peaks(self, rows):
        # A ``(0, 0)`` candidate, like a pad, sorts last and raises no peak.
        peaks = batched_peak_with_candidate(*padded_rows(rows), 0, np.zeros(len(rows), dtype=np.int64))
        assert peaks.tolist() == [peak_of(row) for row in rows]

    @given(
        batch=st.lists(tied_entry_strategy, max_size=10),
        trials=st.lists(st.tuples(tied_entry_strategy, st.integers(-2, 2)), min_size=1, max_size=8),
    )
    def test_admit_keeps_exactly_the_candidates_that_fit(self, batch, trials):
        """``admit`` answers the kernel over batch + candidate and keeps only a candidate that fits.

        Budgets sit within two tokens of the true peak, so both answers are
        common, and a rejected candidate must leave every later answer unchanged.
        """
        index = FutureMemoryIndex(*columns(batch))
        for candidate, offset in trials:
            peak = peak_of(batch + [candidate])
            budget = peak + offset
            assert index.admit(*candidate, budget) is (peak <= budget)
            if peak <= budget:
                batch = batch + [candidate]

    @given(
        width=st.integers(0, 8),
        row_count=st.integers(1, 6),
        candidate_current=st.integers(0, 300),
        data=st.data(),
    )
    def test_batched_rows_equal_kernel_with_candidate(self, width, row_count, candidate_current, data):
        row = st.lists(tied_entry_strategy, min_size=width, max_size=width)
        rows = data.draw(st.lists(row, min_size=row_count, max_size=row_count))
        candidate_remaining = data.draw(st.lists(st.integers(0, 4), min_size=row_count, max_size=row_count))
        current, remaining = padded_rows(rows)
        peaks = batched_peak_with_candidate(current, remaining, candidate_current, candidate_remaining)
        expected = [
            peak_of(entries + [(candidate_current, cand)]) for entries, cand in zip(rows, candidate_remaining)
        ]
        assert peaks.tolist() == expected


class TestPredictorProperties:
    @given(lengths=lengths_strategy, seed=st.integers(0, 1000), count=st.integers(1, 50))
    @settings(max_examples=50)
    def test_new_samples_are_drawn_from_history(self, lengths, seed, count):
        predictor = OutputLengthPredictor(history_of(lengths), seed=seed)
        samples = predictor.predict_new(count)
        assert set(samples.tolist()) <= set(lengths)

    @given(
        lengths=lengths_strategy,
        generated=st.lists(st.integers(0, 5000), min_size=1, max_size=30),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50)
    def test_running_predictions_strictly_exceed_generated(self, lengths, generated, seed):
        predictor = OutputLengthPredictor(history_of(lengths), seed=seed)
        predictions = predictor.predict_running(generated)
        assert np.all(predictions > np.array(generated))


class TestMaxFirstProperties:
    """Mapping only the largest draw equals ``aggregate_samples`` of every mapped draw.

    Each map from a draw to a length is monotone non-decreasing, so the max
    commutes with it: raw word to double, double to conditional sample, and
    index into the ascending window.
    """

    @given(
        window=st.lists(st.integers(1, 12), min_size=1, max_size=30),
        num_samples=st.integers(1, 5),
        rows=st.sampled_from([None, 1, 4]),
        width=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_max_first_equals_max_of_mapped_samples(self, window, num_samples, rows, width, seed):
        sorted_lengths = np.sort(np.array(window, dtype=np.int64))
        batch = (width,) if rows is None else (rows, width)
        drawn = batch[:-1] + (num_samples, width)
        rng = np.random.default_rng(seed)
        # Generated counts up to past the window max: exhausted tails included.
        generated = rng.integers(0, sorted_lengths[-1] + 3, batch)
        # Eighths tie often; raw words reach the top of the double range.
        raw = rng.integers(0, 2**64, drawn, dtype=np.uint64)
        for uniforms in (rng.integers(0, 8, drawn) / 8, rng_streams.doubles(raw)):
            every = conditional_prediction_samples(sorted_lengths, uniforms, generated[..., None, :])
            first = conditional_prediction_samples(sorted_lengths, aggregate_samples(uniforms), generated)
            np.testing.assert_array_equal(first, aggregate_samples(every))
        np.testing.assert_array_equal(
            rng_streams.doubles(aggregate_samples(raw)), aggregate_samples(rng_streams.doubles(raw))
        )
        indices = rng.integers(0, sorted_lengths.size, drawn)
        np.testing.assert_array_equal(
            sorted_lengths[aggregate_samples(indices)], aggregate_samples(sorted_lengths[indices])
        )


class TestRebuiltStreamProperties:
    """``rng_streams`` reproduces ``default_rng(seed)`` for any seed in ``[0, 2**63)``."""

    @given(
        seed=st.integers(0, 2**63 - 1),
        rows=st.integers(1, 6),
        num_samples=st.integers(1, 5),
        batch=st.integers(1, 8),
        window=st.integers(1, 5000),
    )
    @settings(max_examples=25)
    def test_uniforms_and_choices_equal_default_rng(self, seed, rows, num_samples, batch, window):
        run_draws = num_samples * batch
        raw = rng_streams.raw_streams(seed, rows, run_draws + num_samples)
        uniforms = rng_streams.doubles(raw[:, :run_draws])
        indices, rejected = rng_streams.lemire_indices(raw[:, run_draws:], num_samples, window)
        for row in range(rows):
            rng = np.random.default_rng(seed + row)
            np.testing.assert_array_equal(uniforms[row], rng.random(run_draws))
            drawn = rng.choice(window, size=num_samples)
            if not rejected[row]:
                np.testing.assert_array_equal(indices[row], drawn)


#: One request of a saturated horizon: ``(prompt, generated, cap headroom past generated)``.
horizon_request_strategy = st.tuples(st.integers(1, 800), st.integers(0, 300), st.integers(1, 800))


def horizon_request(request_id: str, prompt: int, generated: int, headroom: int, decoding: bool) -> Request:
    """A request that has generated ``generated`` tokens of a ``generated + headroom`` cap."""
    cap = generated + headroom
    spec = RequestSpec(request_id=request_id, input_length=prompt, output_length=cap, max_new_tokens=cap)
    return grown_request(spec, generated, queued=not decoding)


class TestSaturatedHorizonProperties:
    """The saturated horizon's answer does not depend on how its rows are chunked."""

    @given(
        history=st.lists(st.integers(1, 600), max_size=40),
        running=st.lists(horizon_request_strategy, min_size=1, max_size=6),
        head=horizon_request_strategy,
        head_evicted=st.booleans(),
        num_samples=st.integers(1, 4),
        seed=st.integers(0, 2**63 - 1),
        slack=st.integers(0, 3000),
        max_steps=st.integers(1, 64),
        first_chunk=st.integers(1, 64),
        growth=st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=50, deadline=None)
    def test_horizon_equals_row_by_row_and_any_geometric_schedule(
        self,
        history,
        running,
        head,
        head_evicted,
        num_samples,
        seed,
        slack,
        max_steps,
        first_chunk,
        growth,
    ):
        prompt, generated, headroom = head
        head_generated = generated + 1 if head_evicted else 0
        queued = horizon_request("head", prompt, head_generated, headroom, decoding=False)
        residents = [horizon_request(f"r{i}", *entry, decoding=True) for i, entry in enumerate(running)]
        # The slack over today's tokens decides how soon, if ever, the head fits.
        capacity = sum(r.current_context_tokens for r in residents) + queued.current_context_tokens + slack

        def horizon() -> int:
            scheduler = past_future.PastFutureScheduler(
                seed=seed, num_samples=num_samples, default_length=300
            )
            scheduler.on_run_start()
            record(scheduler.history, history)
            context = SchedulerQueue(scheduler, [queued]).context(residents, token_capacity=capacity)
            return scheduler.saturated_no_admit_horizon(context, max_steps)

        default = horizon()
        for first, factor in ((1, 1), (first_chunk, growth)):
            with mock.patch.multiple(past_future, _HORIZON_FIRST_CHUNK=first, _HORIZON_CHUNK_GROWTH=factor):
                assert horizon() == default, (first, factor)


class TestConservativeBatchCapProperties:
    """The static batch is one more refusal of the conservative fit test."""

    @given(
        running=st.lists(horizon_request_strategy, max_size=6),
        waiting=st.lists(horizon_request_strategy, min_size=1, max_size=10),
        cap=st.integers(1, 8),
        overcommit=st.sampled_from([0.5, 1.0, 1.5]),
        capacity=st.integers(200, 20_000),
        max_steps=st.integers(1, 64),
    )
    @settings(max_examples=100, deadline=None)
    def test_capped_consult_is_the_uncapped_one_cut_to_the_free_slots(
        self, running, waiting, cap, overcommit, capacity, max_steps
    ):
        residents = [horizon_request(f"r{i}", *entry, decoding=True) for i, entry in enumerate(running)]
        queued = [horizon_request(f"w{i}", *entry, decoding=False) for i, entry in enumerate(waiting)]
        capped = ConservativeScheduler(overcommit, max_running_requests=cap)
        uncapped = ConservativeScheduler(overcommit)
        capped_context = SchedulerQueue(capped, queued).context(residents, token_capacity=capacity)
        uncapped_context = SchedulerQueue(uncapped, queued).context(residents, token_capacity=capacity)
        free_slots = max(cap - len(residents), 0)
        assert capped.schedule(capped_context) == uncapped.schedule(uncapped_context)[:free_slots]
        # The proof before the cap moved here: a full batch proved the whole
        # window outright, otherwise the uncapped one-test proof decided.
        expected = uncapped.saturated_no_admit_horizon(uncapped_context, max_steps)
        if residents and len(residents) >= cap:
            expected = max_steps
        assert capped.saturated_no_admit_horizon(capped_context, max_steps) == expected


class TestHistoryProperties:
    @given(
        values=st.lists(st.integers(1, 10_000), min_size=1, max_size=300),
        window=st.integers(1, 50),
    )
    def test_window_keeps_most_recent_values(self, values, window):
        history = OutputLengthHistory(window_size=window)
        record(history, values)
        expected = values[-window:]
        assert list(history.snapshot()) == expected


#: One resident request of a hand-built view: ``(prompt, generated, remaining cap)``.
resident_strategy = st.tuples(st.integers(1, 500), st.integers(0, 300), st.integers(0, 3000))


def reference_remaining(window: list[int], generated: int, cap: int) -> int:
    """Plain-Python conditional-mean prediction, clamped to the request's cap."""
    above = [length for length in window if length > generated]
    expected_total = math.ceil(sum(above) / len(above)) if above else generated + 1
    return max(min(max(expected_total - generated, 1), cap), 1)


#: Replicas of ``(running, waiting)`` residents.  Caps of 0 and 1 and long
#: generations make remaining-1 entries, the ones a pad with remaining 1
#: would outgrow.
replicas_strategy = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(1, 500), st.integers(0, 500), st.integers(0, 3)), max_size=6),
        st.lists(resident_strategy, max_size=6),
    ),
    max_size=5,
)


def padded_two_dimensional_peaks(router: MemoryAwareRouter, views) -> list[int]:
    """The spec of ``predicted_peaks``: one padded 2-D numpy Eq. 2-4 evaluation.

    One prediction covers every busy view's requests; each busy view is one
    row, padded with ``(current 0, remaining 0)`` after the cap clamp; each
    row is sorted stably by descending remaining, prefix-summed and maxed;
    an idle view scores 0.
    """
    busy = [view for view in views if view.current_tokens]
    if not busy:
        return [0] * len(views)
    per_view = [(view.current_tokens, view.generated_tokens, view.remaining_cap_tokens) for view in busy]
    current, generated, caps = np.array([sum(column, ()) for column in zip(*per_view)], dtype=np.int64)
    lengths = [len(view.current_tokens) for view in busy]
    real = np.arange(max(lengths)) < np.array(lengths)[:, None]
    padded_current = np.zeros(real.shape, dtype=np.int64)
    padded_remaining = np.zeros(real.shape, dtype=np.int64)
    padded_current[real] = current
    padded_remaining[real] = np.maximum(np.minimum(router._expected_remaining(generated), caps), 1)
    order = np.argsort(-padded_remaining, axis=-1, kind="stable")
    current_sorted = np.take_along_axis(padded_current, order, axis=-1)
    remaining_sorted = np.take_along_axis(padded_remaining, order, axis=-1)
    counts = np.arange(1, real.shape[1] + 1, dtype=np.int64)
    peaks = iter((np.cumsum(current_sorted, axis=-1) + remaining_sorted * counts).max(axis=-1).tolist())
    return [next(peaks) if view.current_tokens else 0 for view in views]


def resident_view(replica_id: int, running, waiting) -> ReplicaView:
    """A view of ``running`` then ``waiting`` residents, each ``(prompt, generated, cap)``."""
    # Queued entries with ``generated > 0`` are evictees waiting to be readmitted.
    residents = running + waiting
    return ReplicaView(
        replica_id=replica_id,
        token_capacity=10**6,
        used_tokens=sum(prompt + generated for prompt, generated, _ in running),
        current_tokens=tuple(prompt + generated for prompt, generated, _ in residents),
        generated_tokens=tuple(generated for _, generated, _ in residents),
        remaining_cap_tokens=tuple(cap for _, _, cap in residents),
        num_running=len(running),
    )


class TestRouterPredictionProperties:
    @given(
        earlier=st.lists(st.integers(1, 400), max_size=60),
        later=st.lists(st.integers(1, 400), max_size=60),
        window_size=st.integers(1, 50),
        default_length=st.integers(1, 400),
        running=st.lists(resident_strategy, max_size=8),
        waiting=st.lists(resident_strategy, max_size=8),
    )
    @settings(max_examples=100)
    def test_predicted_peak_matches_plain_python_reference(
        self, earlier, later, window_size, default_length, running, waiting
    ):
        router = MemoryAwareRouter(window_size=window_size, default_length=default_length)
        view = resident_view(0, running, waiting)
        record(router.history, earlier)
        router.predicted_peaks([view])  # fill the table cache before the window moves
        record(router.history, later)
        window = (earlier + later)[-window_size:] or [default_length]
        expected = peak_of([
            (prompt + generated, reference_remaining(window, generated, cap))
            for prompt, generated, cap in running + waiting
        ])
        assert router.predicted_peaks([view]) == [expected]

    @given(
        earlier=st.lists(st.integers(1, 400), max_size=60),
        later=st.lists(st.integers(1, 400), max_size=60),
        window_size=st.integers(1, 50),
        replicas=replicas_strategy,
    )
    @settings(max_examples=25)
    def test_batched_peaks_match_per_view_and_reference(self, earlier, later, window_size, replicas):
        router = MemoryAwareRouter(window_size=window_size, default_length=200)
        views = [resident_view(index, running, waiting) for index, (running, waiting) in enumerate(replicas)]
        record(router.history, earlier)
        router.predicted_peaks(views)  # fill the table cache before the window moves
        record(router.history, later)
        window = (earlier + later)[-window_size:] or [200]
        expected = [
            peak_of([
                (prompt + generated, reference_remaining(window, generated, cap))
                for prompt, generated, cap in running + waiting
            ])
            for running, waiting in replicas
        ]
        assert router.predicted_peaks(views) == expected
        assert [router.predicted_peaks([view])[0] for view in views] == expected

    @given(
        history=st.lists(st.integers(1, 400), max_size=60),
        window_size=st.integers(1, 50),
        replicas=replicas_strategy,
        idle=st.lists(st.integers(0, 5), max_size=3),
    )
    @settings(max_examples=50)
    def test_predicted_peaks_equal_padded_two_dimensional_spec(self, history, window_size, replicas, idle):
        router = MemoryAwareRouter(window_size=window_size, default_length=200)
        record(router.history, history)
        views = [resident_view(index, running, waiting) for index, (running, waiting) in enumerate(replicas)]
        for position in idle:
            views.insert(min(position, len(views)), resident_view(len(views), [], []))
        assert router.predicted_peaks(views) == padded_two_dimensional_peaks(router, views)

    @given(
        running=st.lists(resident_strategy, min_size=1, max_size=6),
        ids=st.lists(st.integers(0, 50), min_size=2, max_size=4, unique=True),
        history=st.lists(st.integers(1, 400), max_size=30),
    )
    @settings(max_examples=25)
    def test_equal_scores_pick_the_lowest_replica_id(self, running, ids, history):
        # Identical busy views score identically, so the lowest id must win
        # whatever order the views arrive in.
        spec = RequestSpec(request_id="r", input_length=1, output_length=1, max_new_tokens=1)
        views = [resident_view(replica_id, running, []) for replica_id in ids]
        for name in ("memory-aware", "session-affinity"):
            router = ROUTER_REGISTRY[name]()
            record(router.history, history)
            assert router.decide(spec, views) == min(ids)
            turn = dataclasses.replace(spec, session_id="s", session_stage=0, session_stages=2)
            assert router.decide(turn, views) == min(ids)


class TestBlockPoolProperties:
    @given(sizes=st.lists(st.integers(1, 64), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_allocate_free_round_trip_restores_pool(self, sizes):
        pool = BlockKVCachePool(4096)
        allocated = []
        for size in sizes:
            if pool.can_allocate(size):
                pool.allocate(size)
                allocated.append(size)
        assert pool.used_tokens == sum(allocated)
        for size in allocated:
            pool.free(size)
        assert pool.used_tokens == 0
        assert pool.free_tokens == pool.token_capacity

    @given(
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=20),
        appends=st.integers(0, 100),
    )
    @settings(max_examples=50)
    def test_used_tokens_never_exceed_capacity(self, sizes, appends):
        pool = BlockKVCachePool(512)
        for size in sizes:
            if pool.can_allocate(size):
                pool.allocate(size)
        for _ in range(appends):
            if pool.can_allocate(1):
                pool.allocate(1)
        assert pool.used_tokens <= pool.token_capacity

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["allocate", "grow", "free"]),
                st.integers(0, 5),
                st.integers(0, 24),
            ),
            min_size=8,
            max_size=60,
        ),
        capacity=st.integers(1, 160),
    )
    @settings(max_examples=200)
    def test_pool_matches_a_dict_model(self, ops, capacity):
        """Any operation sequence leaves the pool equal to a plain dict model.

        The owners' counts live in the model, as they live in requests and
        cached prefixes.  After every operation the pool's counters equal the
        model's sum, an allocation fails exactly when it does not fit (and
        then changes nothing), and the uniform growth bound
        ``free_tokens // len(owners)`` is tight: every owner fits ``K`` more
        tokens, but not all of them fit ``K + 1``.
        """
        pool = BlockKVCachePool(capacity)
        model: dict[str, int] = {}
        for op, index, amount in ops:
            owner = f"r{index}"
            free = capacity - sum(model.values())
            if op == "free":
                pool.free(model.pop(owner, 0))
                continue
            if op == "grow" and owner not in model:
                continue
            assert pool.can_allocate(amount) == (amount <= free)
            if amount > free:
                with pytest.raises(OutOfMemoryError):
                    pool.allocate(amount)
            else:
                pool.allocate(amount)
                model[owner] = model.get(owner, 0) + amount
            assert pool.used_tokens == sum(model.values())
            assert pool.free_tokens == capacity - pool.used_tokens
        if model:
            k = pool.free_tokens // len(model)
            pool.allocate(k * len(model))
            assert not pool.can_allocate(len(model))
        with pytest.raises(ValueError):
            pool.free(pool.used_tokens + 1)


class TestSimilarityProperties:
    @given(
        lengths_a=st.lists(st.integers(1, 2048), min_size=5, max_size=200),
        lengths_b=st.lists(st.integers(1, 2048), min_size=5, max_size=200),
    )
    @settings(max_examples=50)
    def test_cosine_similarity_in_unit_interval_and_symmetric(self, lengths_a, lengths_b):
        edges = default_bin_edges(2048)
        hist_a = length_histogram(lengths_a, edges)
        hist_b = length_histogram(lengths_b, edges)
        sim_ab = cosine_similarity(hist_a, hist_b)
        sim_ba = cosine_similarity(hist_b, hist_a)
        assert 0.0 <= sim_ab <= 1.0 + 1e-9
        assert sim_ab == sim_ba

    @given(lengths=st.lists(st.integers(1, 2048), min_size=5, max_size=200))
    def test_self_similarity_is_one(self, lengths):
        edges = default_bin_edges(2048)
        hist = length_histogram(lengths, edges)
        assert hist.sum() == 0.0 or abs(cosine_similarity(hist, hist) - 1.0) < 1e-9


class TestPrefixCacheProperties:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 96)),
            min_size=1,
            max_size=40,
        ),
        capacity=st.integers(32, 256),
        pool_tokens=st.integers(128, 512),
    )
    @settings(max_examples=50)
    def test_residency_never_exceeds_budget_or_pool(self, ops, capacity, pool_tokens):
        """Under any retain/evict pressure the cache stays inside both budgets.

        Each op parks one finished turn's context (evicting cached prefixes
        first when the pool is too full to even allocate it, as the engine
        does for live traffic).  After every single operation: resident
        tokens respect the cache's own budget, match the sum over entries,
        are all the pool holds (no request is resident), and the pool never
        overflows.
        """
        pool = BlockKVCachePool(pool_tokens)
        cache = PrefixCache(pool, capacity_tokens=capacity)
        stages: dict[str, int] = {}
        for session, tokens in ops:
            sid = f"s{session}"
            if not pool.can_allocate(tokens):
                cache.evict_for_allocation(tokens)
            if not pool.can_allocate(tokens):
                continue
            pool.allocate(tokens)
            outcome = cache.retain(sid, stages.get(sid, 0), tokens)
            stages[sid] = stages.get(sid, 0) + 1
            if not outcome.retained:
                pool.free(tokens)
            assert cache.resident_tokens <= capacity
            assert cache.resident_tokens == sum(e.tokens for e in cache_entries(cache))
            assert cache.resident_tokens == pool.used_tokens
            assert pool.used_tokens <= pool.token_capacity
        cache.clear()
        assert cache.resident_tokens == 0
        assert pool.used_tokens == 0

    @given(
        prompt=st.integers(1, 64),
        output=st.integers(1, 64),
        extra=st.integers(1, 32),
    )
    @settings(max_examples=50)
    def test_retained_prefix_is_claimable_by_exactly_the_next_stage(
        self, prompt, output, extra
    ):
        interaction = Interaction(
            session_id="s0",
            stages=(
                InteractionStage(prompt_tokens=prompt, output_tokens=output),
                InteractionStage(prompt_tokens=extra, output_tokens=1),
            ),
        )
        context = prompt + output
        pool = BlockKVCachePool(4 * (context + extra + 1))
        cache = PrefixCache(pool)
        pool.allocate(context)
        outcome = cache.retain("s0", 0, context)
        assert outcome.retained and not outcome.evicted
        assert cache.resident_tokens == pool.used_tokens == context
        # Only the immediately following stage may claim the entry; a replay
        # of the retained stage itself finds nothing.
        assert cache.lookup(interaction.spec(0)) is None
        next_spec = interaction.spec(1)
        entry = cache.lookup(next_spec)
        assert entry is not None and entry.tokens == context
        cache.claim(entry)
        assert len(cache) == 0 and cache.resident_tokens == 0
        # The claiming request now owns the tokens; the pool never saw the handoff.
        assert pool.used_tokens == context


class TestSessionStageProperties:
    @given(
        num_sessions=st.integers(1, 12),
        seed=st.integers(0, 1000),
        min_turns=st.integers(1, 3),
        extra_turns=st.integers(0, 6),
    )
    @settings(max_examples=50)
    def test_stage_ordering_is_total_per_session(
        self, num_sessions, seed, min_turns, extra_turns
    ):
        """Stage order is total per session id, recoverable from any shuffle.

        Request ids are ``{session_id}/t{stage}``, stages run 0..n-1 with no
        gaps, and prefix accumulation makes input lengths strictly increasing
        across a session's turns — so sorting a session's specs by any of id,
        stage, or input length yields the same (unique) order.
        """
        sessions = generate_interactions(
            num_sessions,
            seed=seed,
            min_turns=min_turns,
            max_turns=min_turns + extra_turns,
        )
        assert len({s.session_id for s in sessions}) == len(sessions)
        for interaction in sessions:
            specs = [interaction.spec(stage) for stage in range(interaction.num_stages)]
            assert [s.request_id for s in specs] == [
                f"{interaction.session_id}/t{stage}" for stage in range(len(specs))
            ]
            assert [s.session_stage for s in specs] == list(range(len(specs)))
            lengths = [s.input_length for s in specs]
            assert lengths == sorted(lengths)
            assert len(set(lengths)) == len(lengths)
            assert specs[-1].is_final_stage
            assert not any(s.is_final_stage for s in specs[:-1])

    @given(num_sessions=st.integers(1, 10), seed=st.integers(0, 1000))
    @settings(max_examples=50)
    def test_generation_is_deterministic_in_the_seed(self, num_sessions, seed):
        assert generate_interactions(num_sessions, seed=seed) == generate_interactions(
            num_sessions, seed=seed
        )


class _FinishedTurn:
    """Minimal stand-in for a finished engine request (spec + is_finished)."""

    def __init__(self, spec):
        self.spec = spec
        self.is_finished = True


class TestSpawnedArrivalProperties:
    @given(
        seed=st.integers(0, 500),
        num_sessions=st.integers(1, 8),
        think_time=st.floats(0.0, 5.0),
        start_spacing=st.floats(0.0, 3.0),
        service_time=st.floats(0.001, 2.0),
    )
    @settings(max_examples=50)
    def test_spawned_arrivals_are_monotone_per_session(
        self, seed, num_sessions, think_time, start_spacing, service_time
    ):
        """Turn *n + 1* never arrives before turn *n* completes, any seed.

        Drives the closed-loop generator to drain with a fixed per-turn
        service time: every session's arrivals come out in stage order, each
        at least one service (plus think) time after its predecessor, and
        the global pop clock never runs backwards.
        """
        sessions = generate_interactions(
            num_sessions,
            seed=seed,
            min_turns=1,
            max_turns=6,
            think_time=think_time,
            start_spacing=start_spacing,
        )
        generator = InteractionLoadGenerator(sessions)
        generator.start(0.0)
        arrivals: dict[str, list[tuple[int, float]]] = {}
        last_pop = -1.0
        while (now := generator.next_arrival_time()) is not None:
            assert now >= last_pop
            last_pop = now
            ready = generator.pop_arrivals(now)
            assert ready
            for spec in ready:
                arrivals.setdefault(spec.session_id, []).append(
                    (spec.session_stage, spec.arrival_time)
                )
                finish = now + service_time
                generator.on_request_finished(finish, _FinishedTurn(spec))
        assert set(arrivals) == {s.session_id for s in sessions}
        for interaction in sessions:
            turns = arrivals[interaction.session_id]
            assert [stage for stage, _ in turns] == list(range(interaction.num_stages))
            times = [time for _, time in turns]
            for earlier, later in zip(times, times[1:]):
                assert later >= earlier + service_time + think_time - 1e-9


#: Think times mixed per session: none, shorter than one decode iteration,
#: a fraction of a run, and far longer than one.
THINK_TIMES = (0.0, 1e-3, 0.5, 20.0)
FLEET_PLATFORM = paper_platform("7b-a100")


def run_generated_fleet(
    fast_path: bool,
    num_replicas: int,
    router: str,
    scheduler: str,
    sessions: bool,
    think_times: list[float],
    crash: tuple[float, int] | None,
    throttle: tuple[int, float] | None,
    autoscale: tuple[str, float, float] | None,
    seed: int,
):
    """One tiny closed-loop fleet run; the inputs are rebuilt per call.

    ``throttle`` is ``(user_rpm, window_seconds)``; with it, requests carry
    one of three users.  ``autoscale`` is ``(policy, interval, warmup)``;
    the fleet may then range from one replica to two above its start.
    Every replica's pool ledger is checked at drain, and every arrival must
    have been handled at its scheduled time.
    """
    faults = None
    if crash is not None:
        faults = FaultPlan(crashes=(ReplicaCrash(time=crash[0], replica=crash[1]),), seed=seed)
    autoscaler = None
    if autoscale is not None:
        policy, interval, warmup = autoscale
        autoscaler = Autoscaler(
            create_autoscale_policy(policy, **({"default_length": 64} if policy == "predictive" else {})),
            interval=interval,
            min_replicas=1,
            max_replicas=num_replicas + 2,
            warmup_delay=warmup,
            sample_window=1.0,
        )
    limiter = None
    if throttle is not None:
        user_rpm, window_seconds = throttle
        limiter = OverloadThrottle(user_rpm=user_rpm, window_seconds=window_seconds)
    users = 3 if throttle is not None else 0
    tracer = RingTracer()
    simulator = ClusterSimulator(
        platform=FLEET_PLATFORM,
        num_replicas=num_replicas,
        router=router,
        scheduler_name=scheduler,
        token_capacity_override=TINY_CAPACITY,
        prefix_cache_tokens=TINY_CAPACITY // 2 if sessions else None,
        faults=faults,
        fast_path=fast_path,
        throttle=limiter,
        autoscaler=autoscaler,
        tracer=tracer,
    )
    if sessions:
        interactions = generate_interactions(
            6 * len(think_times),
            seed=seed,
            mean_prompt_tokens=24.0,
            mean_output_tokens=48.0,
            max_turns=4,
            start_spacing=0.02,
            num_users=users,
        )
        interactions = [
            dataclasses.replace(it, think_time=think_times[i % len(think_times)])
            for i, it in enumerate(interactions)
        ]
        result = simulator.run_sessions(interactions)
    else:
        spec = UniformLengthSpec("generated", 4, 64, 1, 192)
        workload = generate_uniform_workload(spec, 8 * len(think_times) + 8, seed=seed)
        if users:
            workload = assign_tenants(workload, generate_tenant_population(users), seed=seed)
        result = simulator.run_closed_loop(
            workload, num_clients=2 * len(think_times) + 2, think_time=think_times[0]
        )
    for replica in simulator.replicas:
        assert_pool_ledger(replica.engine)
    assert tracer.dropped == 0
    assert_no_late_arrivals(tracer.events, result)
    return result


class TestGeneratedClosedLoopFleets:
    """The fast path equals the reference loop on generated closed-loop fleets.

    Closed-loop completions spawn arrivals, so each replica's event jumps are
    bounded by the other replicas' clocks plus the generator's minimum
    follow-up delay.  Mixed think times put that bound both below and far
    above one decode iteration.  An optional per-user throttle releases
    client slots at the instant it turns a request away; its window ranges
    from shorter than a run to longer than any.  An optional autoscaler
    adds decision instants and warm-up completions to the jump horizon,
    and launches and drains replicas mid-run.  On both loops every arrival,
    spawned or scheduled, is handled at its own time, never at a later event.
    """

    @given(
        num_replicas=st.integers(2, 4),
        router=st.sampled_from(sorted(ROUTER_REGISTRY)),
        scheduler=st.sampled_from(["aggressive", "past-future"]),
        sessions=st.booleans(),
        think_times=st.lists(st.sampled_from(THINK_TIMES), min_size=2, max_size=4),
        crash=st.none() | st.tuples(st.floats(0.01, 3.0), st.integers(0, 3)),
        throttle=st.none() | st.tuples(st.integers(1, 3), st.sampled_from([0.05, 1.0, 60.0])),
        autoscale=st.none()
        | st.tuples(
            st.sampled_from(["static", "reactive", "predictive"]),
            st.sampled_from([0.05, 0.25, 1.0]),
            st.sampled_from([0.0, 0.05, 0.5]),
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_path_matches_reference(
        self, num_replicas, router, scheduler, sessions, think_times, crash, throttle, autoscale, seed
    ):
        if crash is not None:
            crash = (crash[0], crash[1] % num_replicas)
        args = (num_replicas, router, scheduler, sessions, think_times, crash, throttle, autoscale, seed)
        fast = run_generated_fleet(True, *args)
        reference = run_generated_fleet(False, *args)
        assert fast.completed and reference.completed
        assert_rng_stream_identity(fast, reference)
        assert_conservation(fast)
        assert_conservation(reference)


def _ledger_checked(method):
    """``method`` with the pool ledger asserted after every call."""

    def checked(engine, *args, **kwargs):
        result = method(engine, *args, **kwargs)
        assert_pool_ledger(engine)
        return result

    return checked


class TestPoolLedgerProperties:
    """The pool's one number is what the batch and the prefix cache hold.

    The pool keeps no per-owner map, so nothing but the engine's own
    bookkeeping ties ``used_tokens`` to its owners.  The ledger is checked
    after every ``step()`` and every jump, on pools barely larger than the
    largest request, so admissions evict cached prefixes and decode growth
    evicts running requests.
    """

    @given(
        scheduler=st.sampled_from(["aggressive", "past-future"]),
        chunked=st.sampled_from([None, 16]),
        sessions=st.booleans(),
        headroom=st.integers(0, 256),
        budget=st.sampled_from([0.25, 0.5, 1.0, 4.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_used_tokens_equal_resident_plus_cached(
        self, scheduler, chunked, sessions, headroom, budget, seed
    ):
        if sessions:
            interactions = generate_interactions(
                12,
                seed=seed,
                mean_prompt_tokens=24.0,
                mean_output_tokens=48.0,
                max_turns=4,
                start_spacing=0.01,
            )
            largest = max(
                it.spec(stage).total_tokens
                for it in interactions
                for stage in range(it.num_stages)
            )
        else:
            workload = generate_uniform_workload(
                UniformLengthSpec("ledger", 4, 64, 1, 192), 40, seed=seed
            )
            largest = max(spec.total_tokens for spec in workload.requests)
        capacity = largest + headroom
        simulator = ClusterSimulator(
            platform=FLEET_PLATFORM,
            router=None,
            scheduler_name=scheduler,
            chunked_prefill_tokens=chunked,
            token_capacity_override=capacity,
            prefix_cache_tokens=max(1, int(capacity * budget)) if sessions else None,
        )
        with mock.patch.object(
            InferenceEngine, "step", _ledger_checked(InferenceEngine.step)
        ), mock.patch.object(
            InferenceEngine, "try_jump_any", _ledger_checked(InferenceEngine.try_jump_any)
        ):
            if sessions:
                simulator.run_sessions(interactions)
            else:
                simulator.run_closed_loop(workload, num_clients=12)
        assert_pool_ledger(simulator.replicas[0].engine)


def whole_queue_vtc_order(scheduler, waiting):
    """VTC's candidate order as a heap over every queued request: the spec.

    Every request enters keyed ``(tenant counter, queue index)``; a popped
    entry whose tenant was provisionally charged since it was pushed goes
    back in at the charged counter.
    """
    counters = scheduler._counters
    provisional: dict[str, float] = {}
    heap = [(counters.get(scheduler._tenant(r), 0.0), index) for index, r in enumerate(waiting)]
    heapq.heapify(heap)
    while heap:
        pushed, index = heapq.heappop(heap)
        candidate = waiting[index]
        tenant = scheduler._tenant(candidate)
        current = provisional.get(tenant, counters.get(tenant, 0.0))
        if pushed < current:
            heapq.heappush(heap, (current, index))
            continue
        yield candidate
        provisional[tenant] = current + scheduler._service_tokens(candidate) / scheduler._weight(tenant)


#: Tenants a queued request may belong to; ``None`` is the anonymous tenant.
vtc_tenant_strategy = st.sampled_from([None, "t0", "t1", "t2", "t3", "t4"])
#: A virtual counter: small shared values make ties common.
vtc_counter_strategy = st.one_of(
    st.sampled_from([0.0, 1.0, 8.0]), st.floats(0.0, 200.0, allow_nan=False)
)


class TestVirtualTokenCounterOrderProperties:
    """The per-tenant-head heap yields exactly the whole-queue heap's order."""

    @given(
        queue=st.lists(
            st.tuples(vtc_tenant_strategy, st.integers(1, 64), st.integers(0, 8)), min_size=1, max_size=30
        ),
        counters=st.dictionaries(
            st.sampled_from(["anonymous", "t0", "t1", "t2", "t3", "t4"]), vtc_counter_strategy
        ),
        weights=st.dictionaries(st.sampled_from(["t0", "t1", "t2", "t3"]), st.floats(0.25, 4.0)),
        service_weights=st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 2.0), (0.5, 1.5)]),
        admitted=st.integers(0, 32),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_k_candidates_match_the_whole_queue_heap(
        self, queue, counters, weights, service_weights, admitted
    ):
        waiting = []
        for index, (tenant, prompt, generated) in enumerate(queue):
            spec = RequestSpec(
                request_id=f"q{index}",
                input_length=prompt,
                output_length=64,
                max_new_tokens=64,
                user_id=tenant,
            )
            # An evicted request is queued again with its generated tokens.
            waiting.append(grown_request(spec, generated, queued=True))
        prefill_weight, decode_weight = service_weights
        for scheduler in (
            VirtualTokenCounterScheduler(prefill_weight=prefill_weight, decode_weight=decode_weight),
            WeightedServiceCounterScheduler(
                weights=weights, prefill_weight=prefill_weight, decode_weight=decode_weight
            ),
        ):
            queue = SchedulerQueue(scheduler, waiting)
            scheduler._counters = dict(counters)
            got = list(islice(scheduler._candidates(queue.waiting), admitted))
            want = list(islice(whole_queue_vtc_order(scheduler, waiting), admitted))
            assert [r.request_id for r in got] == [r.request_id for r in want], scheduler.name


#: One operation on an engine under VTC, ``(kind, tenant, prompt, output,
#: follow-up turn?, victim)``: a submit, an admitting step, a forced eviction
#: of the resident at index ``victim``, or a crash.  Repeated kinds weight
#: the draw, so queues grow long and mix evicted and fresh requests before a
#: crash empties them.
vtc_engine_operation = st.tuples(
    st.sampled_from(["submit"] * 4 + ["step"] * 3 + ["evict"] * 2 + ["abort"]),
    vtc_tenant_strategy,
    st.integers(1, 32),
    st.integers(1, 12),
    st.booleans(),
    st.integers(0, 2**16),
)


def apply_vtc_engine_operation(engine, operation, index: int, time: float) -> float:
    """Run one ``vtc_engine_operation`` on ``engine``; returns the new clock.

    A follow-up turn extends its tenant's cached session prefix, so the
    admission it leads to is a prefix hit.
    """
    kind, tenant, prompt, output, follow_up, victim = operation
    if kind == "submit":
        spec = RequestSpec(
            request_id=f"q{index}",
            input_length=prompt,
            output_length=output,
            max_new_tokens=output,
            user_id=tenant,
        )
        if engine.prefix_cache is not None:
            session = f"s-{tenant}"
            entry = next((e for e in cache_entries(engine.prefix_cache) if e.session_id == session), None)
            stage = index
            if follow_up and entry is not None:
                stage = entry.stage + 1
                spec = dataclasses.replace(spec, input_length=entry.tokens + prompt)
            spec = dataclasses.replace(spec, session_id=session, session_stage=stage)
        if spec.total_tokens <= engine.token_capacity:
            engine.submit(Request(spec=spec, arrival_time=time), time)
    elif kind == "step":
        if engine.has_work():
            time = engine.step(time).end_time
    elif kind == "evict":
        if engine.batch:
            engine._evict(engine.batch[victim % len(engine.batch)], time)
    else:
        engine.abort_all(time)
    return time


class TestVirtualTokenCounterEngineOrder:
    """The FIFOs the engine's hooks keep give the whole-queue heap's order.

    A real engine drives VTC through submits, admitting steps, forced
    evictions and crashes.  After every operation the
    scheduler's candidates must come in the spec's order over
    ``engine.waiting``, and a consult's batch total, read off the pool
    ledger, must be the batch's context.
    """

    @given(
        weighted=st.booleans(),
        capacity=st.integers(48, 384),
        cached=st.booleans(),
        operations=st.lists(vtc_engine_operation, min_size=20, max_size=80),
    )
    @settings(max_examples=150, deadline=None)
    def test_candidates_and_batch_total_track_the_engine(self, weighted, capacity, cached, operations):
        scheduler = (
            WeightedServiceCounterScheduler(weights={"t0": 2.0, "t1": 0.5})
            if weighted
            else VirtualTokenCounterScheduler()
        )
        engine = InferenceEngine(
            FLEET_PLATFORM,
            scheduler,
            token_capacity_override=capacity,
            prefix_cache_tokens=capacity // 2 if cached else None,
        )
        time = 0.0
        for index, operation in enumerate(operations):
            time = apply_vtc_engine_operation(engine, operation, index, time)
            waiting = list(engine.waiting)
            got = list(scheduler._candidates(engine.waiting))
            want = list(whole_queue_vtc_order(scheduler, waiting))
            assert [r.request_id for r in got] == [r.request_id for r in want], operation
            context = engine._scheduling_context()
            assert context.running_tokens == sum(r.current_context_tokens for r in engine.batch), operation


#: ``vtc_engine_operation`` plus event jumps; a follow-up turn's new prompt
#: may be empty, so its prefix hit covers the whole prompt and it decodes
#: from admission on.
token_state_operation = st.tuples(
    st.sampled_from(["submit"] * 4 + ["step"] * 4 + ["jump"] * 2 + ["evict"] * 2 + ["abort"]),
    vtc_tenant_strategy,
    st.integers(0, 32),
    st.integers(1, 12),
    st.booleans(),
    st.integers(0, 2**16),
)


def assert_token_state(engine, requests) -> None:
    """Every request's derived token state agrees with itself and the engine."""
    for request in requests:
        times = request.token_times
        assert len(times) == request.generated_tokens, request.request_id
        assert times == sorted(times), request.request_id
        if request.is_finished:
            assert request.generated_tokens == request.spec.output_length, request.request_id
    decoding = [r for r in engine.batch if r.state is RequestState.DECODING]
    for request in engine.batch:
        assert request.current_context_tokens == request.prompt_tokens + request.generated_tokens
    assert engine._decoding == len(decoding)
    assert engine._decode_context == sum(r.current_context_tokens for r in decoding)
    assert_pool_ledger(engine)


class TestDerivedTokenStateProperties:
    """Token state read off the engine's end-time list survives every event.

    Small pools force boundary evictions; forced evictions and crashes
    close segments between iterations.  After every step and
    jump each request's token timeline, the resident contexts, the decode
    counters and the pool ledger must agree.
    """

    @given(
        fair=st.booleans(),
        capacity=st.integers(32, 256),
        chunk=st.sampled_from([None, 4, 16]),
        cached=st.booleans(),
        operations=st.lists(token_state_operation, min_size=20, max_size=80),
    )
    @settings(max_examples=150, deadline=None)
    def test_token_state_is_consistent_after_every_step_and_jump(
        self, fair, capacity, chunk, cached, operations
    ):
        engine = InferenceEngine(
            FLEET_PLATFORM,
            VirtualTokenCounterScheduler() if fair else AggressiveScheduler(watermark=1.0),
            token_capacity_override=capacity,
            chunked_prefill_tokens=chunk,
            prefix_cache_tokens=capacity // 2 if cached else None,
        )
        requests: dict[str, Request] = {}
        time = 0.0
        for index, operation in enumerate(operations):
            if operation[0] == "jump":
                jump = engine.try_jump_any(time)
                time = time if jump is None else jump.end_time
            else:
                time = apply_vtc_engine_operation(engine, operation, index, time)
            requests.update((r.request_id, r) for r in (*engine.batch, *engine.waiting))
            assert_token_state(engine, requests.values())
        while engine.has_work():
            jump = engine.try_jump_any(time)
            time = engine.step(time).end_time if jump is None else jump.end_time
            assert_token_state(engine, requests.values())
