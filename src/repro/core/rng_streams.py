"""The streams of ``np.random.default_rng(s)`` from a cached seed hash.

``default_rng(s)`` spends most of its time in NumPy's pool hash of the seed,
``SeedSequence(s).generate_state(4, uint64)``.  This module evaluates that
hash vectorised over blocks of consecutive seeds, caches the words and hands
them to ``PCG64`` through NumPy's public ``ISeedSequence`` interface, which
gives bit for bit the bit generator of ``default_rng(s)``.  :func:`generator`
serves the Past-Future scheduler's per-consult generators, :func:`raw_streams`
the raw outputs its saturated-phase proof replays; :func:`doubles` and
:func:`lemire_indices` turn those into what ``Generator.random`` and a uniform
``Generator.choice`` return.  :func:`streams_match` checks it all against
``default_rng`` once per process; when it is false, :func:`generator` returns
``default_rng`` and the proof redraws every row from it.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_BLOCK = 4096


class _Words(ISeedSequence):
    """A seed's cached words: ``PCG64`` seeds itself from them and builds no ``SeedSequence``."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The four cached uint64 words (the one request ``PCG64`` makes)."""
        return self._words


def _hasher(init: int, mult: int):
    """NumPy's ``hashmix``: each call XORs in one constant and multiplies by the next."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


@functools.lru_cache(maxsize=2)
def _seed_words(block: int) -> np.ndarray:
    """``(BLOCK, 4)`` uint64: ``SeedSequence(s).generate_state(4, uint64)`` per seed of the block."""
    seeds = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint64)
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    # mix_entropy: a seed below 2**64 fills the 4-word pool with (low, high, 0, 0).
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # generate_state: 8 hashed 32-bit words, paired little-endian into 4 uint64.
    output = _hasher(_INIT_B, _MULT_B)
    words = [output(pool[i % 4]).astype(np.uint64) for i in range(8)]
    block_words = np.stack([words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(4)], axis=1)
    # Every generator of the block shares these words (as its seed_seq state).
    block_words.flags.writeable = False
    return block_words


def _pcg64(seed: int) -> np.random.PCG64:
    """``PCG64(seed)`` from the cached words of a seed in ``[0, 2**64)``."""
    block, offset = divmod(operator.index(seed), _BLOCK)
    return np.random.PCG64(_Words(_seed_words(block)[offset]))


def generator(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a seed in ``[0, 2**64)``: the same generator, no seed hash."""
    if not streams_match():
        return np.random.default_rng(seed)
    return np.random.Generator(_pcg64(seed))


def raw_streams(first_seed: int, rows: int, count: int) -> np.ndarray:
    """``(rows, count)`` uint64: the first ``count`` raw outputs of ``default_rng(first_seed + r)``.

    Seeds must lie in ``[0, 2**64)``: the seed hash assumes two entropy words.
    """
    if first_seed < 0 or first_seed + rows > 2**64:
        raise ValueError("seeds must lie in [0, 2**64)")
    out = np.empty((rows, count), dtype=np.uint64)
    for row in range(rows):
        out[row] = _pcg64(first_seed + row).random_raw(count)
    return out


def doubles(raw: np.ndarray) -> np.ndarray:
    """``Generator.random`` of raw outputs: PCG64's ``next_double``, 53 high bits."""
    return (raw >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def lemire_indices(raw: np.ndarray, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, ``count`` uniform indices below ``n`` as ``Generator.choice`` draws them.

    ``choice`` takes ``integers(0, n)``, which for ``n <= 2**32 - 1`` is Lemire's
    method on 32-bit draws: the low half of each raw output, then its high
    half.  Returns ``(indices, rejected)``; ``rejected[r]`` is set when some
    draw of row ``r`` might have been rejected (``leftover < n``), so its
    indices are not ``choice``'s and the row must be redrawn by a generator.
    """
    rows = raw.shape[0]
    if n == 1:
        return np.zeros((rows, count), dtype=np.int64), np.zeros(rows, dtype=bool)
    if n > _MASK32:
        return np.zeros((rows, count), dtype=np.int64), np.ones(rows, dtype=bool)
    words = raw[:, : (count + 1) // 2]
    halves = np.stack([words & np.uint64(_MASK32), words >> np.uint64(32)], axis=-1)
    scaled = halves.reshape(rows, -1)[:, :count] * np.uint64(n)
    rejected = ((scaled & np.uint64(_MASK32)) < np.uint64(n)).any(axis=1)
    return (scaled >> np.uint64(32)).astype(np.int64), rejected


@functools.cache
def streams_match() -> bool:
    """Whether the cached-hash generators equal ``default_rng`` on two seeds (checked once)."""
    for seed in (20240917, 2**40 + 3):
        rng = np.random.default_rng(seed)
        raw = raw_streams(seed, 1, 7)
        indices, rejected = lemire_indices(raw[:, 6:], 1, 1000)
        if not (
            _pcg64(seed).state == rng.bit_generator.state
            and np.array_equal(doubles(raw[0, :6]), rng.random(6))
            and not rejected[0]
            and indices[0, 0] == rng.choice(np.arange(1000), size=(1, 1))[0, 0]
        ):
            return False
    return True
