"""Seeded random-number streams.

Every stochastic component draws from a named sub-stream derived from one
global seed, so independent components never share or race on generator
state and any single piece of output can be reproduced in isolation.

A sub-stream is numpy's ``default_rng`` of its key words: the seed, then
one 32-bit word per label.  :func:`substreams` seeds a whole stack of them
at once; numpy's ``SeedSequence`` hash runs over every key in one pass of
uint32 array arithmetic, and each row's seed words go to its own PCG64.
"""

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _key_word(label) -> int:
    """One 32-bit key word: an int as-is (mod 2**32), else a stable hash."""
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK32
    return zlib.crc32(str(label).encode("utf-8"))


class _SeedWords(ISeedSequence):
    """A seed sequence that hands a bit generator precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hasher(const: int, mult: int):
    """numpy's SeedSequence hash step, whose multiplier moves on each call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row.

    ``entropy`` is a (B, L) uint32 array of B keys of L words; the hash
    constants move the same way for every row, so each step is one array
    operation over the B rows.
    """

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> np.uint32(16))

    b, n = entropy.shape
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(b, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, n):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    # generate_state: 8 uint32 words cycling over the pool, read as 4
    # little-endian uint64 words.
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.empty((b, 2 * _POOL_SIZE), dtype="<u4")
    for i_dst in range(2 * _POOL_SIZE):
        state[:, i_dst] = hashmix(pool[i_dst % _POOL_SIZE])
    return state.view("<u8").astype(np.uint64)


def substreams(seed: int, labels, rows) -> list:
    """One generator per row of the (B, K) integer key array ``rows``.

    Row b draws exactly what ``substream(seed, *labels, *rows[b])`` draws;
    all B streams are seeded in one vectorized pass.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"rows must be a (B, K) key array, got shape {rows.shape}")
    if rows.size and not np.issubdtype(rows.dtype, np.integer):
        raise TypeError(f"rows must hold integers, got {rows.dtype}")
    prefix = [_key_word(seed), *(_key_word(label) for label in labels)]
    entropy = np.empty((len(rows), len(prefix) + rows.shape[1]), dtype=np.uint32)
    entropy[:, :len(prefix)] = prefix
    entropy[:, len(prefix):] = rows.astype(np.int64, copy=False) & _MASK32
    return [np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for words in _seed_words(entropy)]


def substream(seed: int, *labels) -> np.random.Generator:
    """Return a generator for the sub-stream identified by ``labels``.

    Labels may be strings (hashed stably) or plain ints (used as-is), so
    ``substream(seed, "noise", entry, repeat)`` is reproducible across
    runs and platforms.
    """
    return substreams(seed, labels, np.empty((1, 0), dtype=np.int64))[0]
