"""Counter-keyed random streams.

Every sampling site derives its own Philox stream from (seed, role, keys),
so worker w / thread h / pass c draws the same numbers no matter how the
runtime schedules it, and a straight-line reference loop can reproduce an
engine trajectory by constructing the identical streams.

A stream's key is numpy's ``SeedSequence`` hash of the entropy words
``[seed mod 2**32, role, *keys]``, bit for bit: ``substream(...)`` has the
same state as ``Philox(SeedSequence(words))``. SeedSequence mixes the first
four words into a four-word pool, then folds each later word into that pool
with a running hash constant. For the per-pass sample streams, entropy
``[seed, ROLE_SAMPLE, w, h, pass]``, the pool after the first four words
depends only on ``(seed, role, w, h)``: it is computed once and cached, and
only the pass word is folded in per call. Entropy of four words or fewer
(delay, init and environment streams), and any word outside ``[0, 2**32)``,
goes through numpy's ``SeedSequence`` unchanged.

Each role takes a fixed number of keys: SeedSequence pads entropy shorter
than four words with zeros, so ``substream(s, r)`` and ``substream(s, r, 0)``
are the same stream.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# role tags keep unrelated sampling sites out of each other's streams
ROLE_SAMPLE = 1   # component index draws in local SGD steps
ROLE_DELAY = 2    # injected transit latencies
ROLE_INIT = 3     # model / problem initialisation
ROLE_ENV = 4      # environment and action sampling

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


@lru_cache(maxsize=4096)
def _prefix_pool(words: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(pool, hash constant) after SeedSequence mixes its first 4 words."""
    hash_const = _INIT_A
    pool = []
    for word in words:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)
    return tuple(pool), hash_const


class _PoolSeed(ISeedSequence):
    """A SeedSequence reduced to its mixed pool; generate_state as numpy's."""

    __slots__ = ("pool",)

    def __init__(self, pool: list[int]):
        self.pool = pool

    def generate_state(self, n_words, dtype=np.uint32):
        out_dtype = np.dtype(dtype)
        if out_dtype != np.uint32 and out_dtype != np.uint64:
            raise ValueError("only support uint32 or uint64")
        hash_const = _INIT_B
        state = []
        for i in range(n_words * out_dtype.itemsize // 4):
            value = self.pool[i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            state.append(value ^ value >> _XSHIFT)
        if out_dtype == np.uint64:  # little-endian word pairs, as numpy's
            state = [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]
        return np.array(state, dtype=out_dtype.type)


def _seed_for(words: list[int]):
    """SeedSequence(words), or an equal-state _PoolSeed when it is cheaper."""
    if len(words) <= _POOL_SIZE or min(words) < 0 or max(words) > _MASK32:
        return np.random.SeedSequence(words)
    pool, hash_const = _prefix_pool(tuple(words[:_POOL_SIZE]))
    pool = list(pool)
    for word in words[_POOL_SIZE:]:
        for i in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[i] = _mix(pool[i], value)
    return _PoolSeed(pool)


def substream(seed: int, role: int, *keys: int) -> np.random.Generator:
    entropy = [int(seed) & _MASK32, int(role)] + [int(k) for k in keys]
    return np.random.Generator(np.random.Philox(_seed_for(entropy)))


def draw_indices(rng: np.random.Generator, n: int, size: int = 1):
    """Uniform component indices; an int for size 1, else an array."""
    if size == 1:
        return int(rng.integers(0, n))
    return rng.integers(0, n, size=size)


def draw_pass_indices(rng: np.random.Generator, n: int, steps: int,
                      size: int = 1) -> list:
    """The indices of `steps` local steps, in one draw.

    Equal, value and generator state, to `steps` sequential
    draw_indices(rng, n, size) calls: numpy draws bounded integers in
    order from the bit generator and keeps no state of its own between
    calls.
    """
    draws = rng.integers(0, n, size=steps * size)
    if size == 1:
        return draws.tolist()
    return list(draws.reshape(steps, size))
