"""Rebuilt ``default_rng(seed)`` streams equal numpy's, draw for draw.

:mod:`repro.core.rng_streams` builds ``np.random.default_rng(s)`` from a
cached seed hash: the predictor's generator (:func:`rng_streams.generator`)
and the raw PCG64 outputs of consecutive seeds, from which the
saturated-horizon proof of the Past-Future scheduler reads its uniforms and
``choice`` indices.  These tests pin every layer against numpy itself — the
generator and its state, the raw words, ``Generator.random`` and
``Generator.choice`` — and show that a consult hashes no seed and a typical
horizon builds no generator at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import rng_streams
from repro.core.past_future import PastFutureScheduler
from tests.helpers import SchedulerQueue
from tests.test_saturated_jump import _decoding_request, _queued_request

#: Block edges of the seed-hash cache, both entropy-word counts, the largest seed.
EDGE_SEEDS = [0, 4095, 4096, 8191, 8192, 2**32 - 1, 2**32, 2**63 - 1]


def test_self_check_passes_on_this_numpy():
    assert rng_streams.streams_match()


@pytest.mark.parametrize("seed", EDGE_SEEDS + [2**64 - 1])
def test_generator_equals_default_rng(seed):
    built, expected = rng_streams.generator(seed), np.random.default_rng(seed)
    assert built.bit_generator.state == expected.bit_generator.state
    np.testing.assert_array_equal(built.random((3, 4)), expected.random((3, 4)))
    np.testing.assert_array_equal(built.integers(0, 1000, 7), expected.integers(0, 1000, 7))
    window = np.arange(5, 50, dtype=np.int64)
    np.testing.assert_array_equal(built.choice(window, (4, 2)), expected.choice(window, (4, 2)))
    assert built.bit_generator.state == expected.bit_generator.state


def test_generators_share_read_only_seed_words():
    words = rng_streams.generator(4097).bit_generator.seed_seq.generate_state(4, np.uint64)
    np.testing.assert_array_equal(words, np.random.SeedSequence(4097).generate_state(4, np.uint64))
    with pytest.raises(ValueError, match="read-only"):
        words[0] = 0


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_raw_outputs_equal_pcg64(seed):
    raw = rng_streams.raw_streams(seed, 3, 9)
    assert raw.dtype == np.uint64 and raw.shape == (3, 9)
    for row in range(3):
        np.testing.assert_array_equal(raw[row], np.random.PCG64(seed + row).random_raw(9))


def test_raw_outputs_across_a_block_edge_and_up_to_the_last_seed():
    for first, rows in ((4090, 12), (2**64 - 5, 5)):
        raw = rng_streams.raw_streams(first, rows, 4)
        for row in range(rows):
            np.testing.assert_array_equal(raw[row], np.random.PCG64(first + row).random_raw(4))


@pytest.mark.parametrize("first", [-1, 2**64 - 2])
def test_seeds_outside_two_entropy_words_are_rejected(first):
    with pytest.raises(ValueError, match=r"seeds must lie in \[0, 2\*\*64\)"):
        rng_streams.raw_streams(first, 3, 4)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_doubles_equal_generator_random(seed):
    raw = rng_streams.raw_streams(seed, 2, 12)
    for row in range(2):
        expected = np.random.default_rng(seed + row).random((3, 4))
        np.testing.assert_array_equal(rng_streams.doubles(raw[row]).reshape(3, 4), expected)


@pytest.mark.parametrize("window", [1, 2, 7, 1000])
@pytest.mark.parametrize("num_samples,batch", [(1, 5), (3, 4), (4, 1)])
def test_choice_indices_follow_the_uniform_draw(window, num_samples, batch):
    """`choice(window, (ns, 1))` after `random((ns, B))`, as schedule() draws."""
    population = np.arange(10, 10 + window, dtype=np.int64)
    run_draws = num_samples * batch
    rows = 64
    raw = rng_streams.raw_streams(777, rows, run_draws + num_samples)
    indices, rejected = rng_streams.lemire_indices(raw[:, run_draws:], num_samples, window)
    assert indices.shape == (rows, num_samples)
    assert not rejected.any()  # about rows * ns * window / 2**32 odds
    for row in range(rows):
        rng = np.random.default_rng(777 + row)
        rng.random((num_samples, batch))
        drawn = rng.choice(population, size=(num_samples, 1), replace=True)
        np.testing.assert_array_equal(population[indices[row]], drawn[:, 0])


def test_rejection_flag_covers_every_lemire_rejection():
    # For n = 2**31 + 1, Lemire rejects a 32-bit draw with leftover below
    # (2**32 - n) % n = 2**31 - 1: about half of all draws.
    n = 2**31 + 1
    threshold = (2**32 - n) % n
    rows, count = 400, 3
    raw = rng_streams.raw_streams(5, rows, 2)
    indices, rejected = rng_streams.lemire_indices(raw, count, n)
    halves = np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=-1)
    leftovers = (halves.reshape(rows, -1)[:, :count] * np.uint64(n)) & np.uint64(0xFFFFFFFF)
    rejects = (leftovers < np.uint64(threshold)).any(axis=1)
    assert 0 < rejects.sum() < rows
    assert not (rejects & ~rejected).any()
    for row in np.flatnonzero(~rejected):
        expected = np.random.default_rng(5 + row).choice(n, size=count)
        np.testing.assert_array_equal(indices[row], expected)


def _saturated_case(head_generated: int = 0):
    scheduler = PastFutureScheduler(reserved_fraction=0.05, seed=13, num_samples=3)
    scheduler.on_run_start()
    for length in (40, 60, 90, 120, 200, 320, 500, 800):
        scheduler.history.record(length)
    running = [
        _decoding_request("r0", prompt=900, generated=10),
        _decoding_request("r1", prompt=700, generated=45),
    ]
    waiting = [_queued_request("q0", prompt=2700, generated=head_generated)]
    return scheduler, SchedulerQueue(scheduler, waiting).context(running, token_capacity=4800)


def _count_generators(monkeypatch) -> list[int]:
    built = [0]
    real = np.random.default_rng

    def counting(*args, **kwargs):
        built[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return built


def _record_predictors(monkeypatch, scheduler) -> list:
    made = []
    real = scheduler._make_predictor

    def recording():
        made.append(real())
        return made[-1]

    monkeypatch.setattr(scheduler, "_make_predictor", recording)
    return made


def test_typical_horizon_builds_no_generator(monkeypatch):
    scheduler, context = _saturated_case()
    # The first horizon of a process also runs the once-per-process self-check.
    expected = scheduler.saturated_no_admit_horizon(context, 300)
    assert 8 < expected < 300  # admits in the third chunk
    built = _count_generators(monkeypatch)
    assert scheduler.saturated_no_admit_horizon(context, 300) == expected
    assert built[0] == 0

    # A consult hashes no seed: its generator's seed sequence is the cached words,
    # not a SeedSequence.
    made = _record_predictors(monkeypatch, scheduler)
    assert scheduler.schedule(context) == []
    assert len(made) == 1 and built[0] == 0
    assert not isinstance(made[0]._rng.bit_generator.seed_seq, np.random.SeedSequence)

    # Without the self-check, the consult's generator is default_rng's.
    monkeypatch.setattr(rng_streams, "streams_match", lambda: False)
    assert scheduler.schedule(context) == []
    assert len(made) == 2 and built[0] == 1
    assert isinstance(made[1]._rng.bit_generator.seed_seq, np.random.SeedSequence)


@pytest.mark.parametrize("head_generated", [0, 7])
@pytest.mark.parametrize("redo", ["every", "alternate"])
def test_redrawn_rows_give_the_same_horizon(monkeypatch, head_generated, redo):
    """Rows sent to the generator fallback are redrawn, not read from the stream.

    The patched helpers hand back extreme draws for the rows they give up on:
    all-ones raw words (the longest predictions: the head would never fit)
    or index 0 (the shortest head prediction: it would fit at once).  An
    unchanged horizon shows those rows were redrawn.
    """
    scheduler, context = _saturated_case(head_generated)
    expected = scheduler.saturated_no_admit_horizon(context, 300)
    if redo == "every":
        # A failed self-check: the streams cannot be trusted at all.
        monkeypatch.setattr(rng_streams, "streams_match", lambda: False)
        def all_ones(first_seed, rows, count):
            return np.full((rows, count), 2**64 - 1, dtype=np.uint64)

        monkeypatch.setattr(rng_streams, "raw_streams", all_ones)
    else:
        real = rng_streams.lemire_indices

        def reject_alternate_rows(raw, count, n):
            indices, _ = real(raw, count, n)
            rejected = np.arange(raw.shape[0]) % 2 == 0
            indices[rejected] = 0
            return indices, rejected

        monkeypatch.setattr(rng_streams, "lemire_indices", reject_alternate_rows)
    built = _count_generators(monkeypatch)
    assert scheduler.saturated_no_admit_horizon(context, 300) == expected
    if redo == "every" or head_generated == 0:
        assert built[0] > 0
    else:  # a conditional head draw never reaches Lemire
        assert built[0] == 0
