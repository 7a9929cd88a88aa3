"""The raw streams of ``np.random.default_rng(s)`` for runs of consecutive seeds.

The saturated-phase proof of the Past-Future scheduler replays one fresh
``default_rng(seed)`` per iteration.  Building a ``Generator`` costs far more
than the handful of draws it serves, so :func:`raw_streams` rebuilds each
stream from its definition instead: ``SeedSequence(s).generate_state(4,
uint64)`` (NumPy's pool hash, evaluated vectorised over a block of seeds and
cached), then ``pcg64_set_seed`` on one reused :class:`numpy.random.PCG64`.
:func:`doubles` and :func:`lemire_indices` turn the raw outputs into what
``Generator.random`` and a uniform ``Generator.choice`` would return.
:func:`streams_match` checks all three against ``default_rng`` once per
process; callers fall back to ``default_rng`` when it is false.
"""

from __future__ import annotations

import functools

import numpy as np

# SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_BLOCK = 4096

_blocks: dict[int, np.ndarray] = {}
_pcg = np.random.PCG64(0)
_state = {"state": 0, "inc": 1}
_pcg_state = {"bit_generator": "PCG64", "state": _state, "has_uint32": 0, "uinteger": 0}


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
    return np.stack([words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(4)], axis=1)


def raw_streams(first_seed: int, rows: int, count: int) -> np.ndarray:
    """``(rows, count)`` uint64: the first ``count`` raw outputs of ``default_rng(first_seed + r)``.

    Seeds must lie in ``[0, 2**64)``: the seed hash assumes two entropy words.
    """
    if first_seed < 0 or first_seed + rows > 2**64:
        raise ValueError("seeds must lie in [0, 2**64)")
    out = np.empty((rows, count), dtype=np.uint64)
    row = 0
    while row < rows:
        block, offset = divmod(first_seed + row, _BLOCK)
        words = _blocks.get(block)
        if words is None:
            if len(_blocks) == 2:
                del _blocks[next(iter(_blocks))]
            words = _blocks[block] = _seed_words(block)
        for s_hi, s_lo, i_hi, i_lo in words[offset : offset + rows - row].tolist():
            # pcg64_set_seed: inc = 2*initseq + 1, two LCG steps around "+= initstate".
            inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
            _state["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
            _state["inc"] = inc
            _pcg.state = _pcg_state
            out[row] = _pcg.random_raw(count)
            row += 1
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
    """Whether the rebuilt streams equal ``default_rng`` on two seeds (checked once)."""
    for seed in (20240917, 2**40 + 3):
        rng = np.random.default_rng(seed)
        raw = raw_streams(seed, 1, 7)
        indices, rejected = lemire_indices(raw[:, 6:], 1, 1000)
        if not (
            np.array_equal(raw[0], np.random.PCG64(seed).random_raw(7))
            and np.array_equal(doubles(raw[0, :6]), rng.random(6))
            and not rejected[0]
            and indices[0, 0] == rng.choice(np.arange(1000), size=(1, 1))[0, 0]
        ):
            return False
    return True
