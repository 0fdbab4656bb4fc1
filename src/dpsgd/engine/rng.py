"""Counter-keyed random streams.

Every sampling site derives its own Philox stream from (seed, role, keys),
so worker w / thread h / pass c draws the same numbers no matter how the
runtime schedules it, and a straight-line reference loop can reproduce an
engine trajectory by constructing the identical streams.

A stream's key is numpy's ``SeedSequence`` hash of the entropy words
``[seed mod 2**32, role, *keys]``, bit for bit: ``substream(...)`` has the
same state as ``Philox(SeedSequence(words))``. The per-pass roles,
ROLE_SAMPLE ``[seed, role, w, h, pass]`` and ROLE_DELAY
``[seed, role, w, pass]``, count their last key 0, 1, 2, ...: their Philox
keys are hashed with numpy arrays for 256 consecutive passes at once, and
kept in a bounded LRU table of such chunks (at most 16 MiB). Every other
stream, and any word outside ``[0, 2**32)``, goes through numpy's
``SeedSequence`` unchanged; an environment stream's key is a random
episode index, so a chunk would serve one stream.

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

# per-pass roles: the last key counts passes 0, 1, 2, ...
_TABLE_ROLES = (ROLE_SAMPLE, ROLE_DELAY)
_CHUNK = 256


def _hashmix(value, hash_const: int):
    # never in place: value may be the caller's array
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _mixed_pool(words: list) -> list:
    """SeedSequence's entropy pool for 32-bit `words`.

    Each word is an int or a uint64 array; the pool words come out as
    arrays of the same shape when any word is one, elementwise as numpy's.
    """
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE] + [0] * (_POOL_SIZE - len(words)):
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)
    for word in words[_POOL_SIZE:]:
        for i in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[i] = _mix(pool[i], value)
    return pool


def _generate_state(pool: list, n_words: int, dtype=np.uint32) -> np.ndarray:
    """SeedSequence.generate_state over `pool`: shape (n_words, *pool shape)."""
    out_dtype = np.dtype(dtype)
    if out_dtype != np.uint32 and out_dtype != np.uint64:
        raise ValueError("only support uint32 or uint64")
    hash_const = _INIT_B
    state = []
    for i in range(n_words * out_dtype.itemsize // 4):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    if out_dtype == np.uint64:  # little-endian word pairs, as numpy's
        state = [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]
    return np.array(state, dtype=out_dtype.type)


@lru_cache(maxsize=4096)
def _chunk_keys(prefix: tuple[int, ...], chunk: int) -> np.ndarray:
    """Philox keys, (CHUNK, 2) uint64, of entropy [*prefix, c] for the
    CHUNK consecutive c from chunk * CHUNK."""
    last = np.arange(chunk * _CHUNK, (chunk + 1) * _CHUNK, dtype=np.uint64)
    keys = _generate_state(_mixed_pool([*prefix, last]), 2, np.uint64).T.copy()
    keys.setflags(write=False)
    return keys


class _KeySeed(ISeedSequence):
    """A Philox seed whose key is already derived: Philox asks for nothing
    but generate_state(2, np.uint64)."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds a Philox key: 2 uint64 words only")
        return self.key


def substream(seed: int, role: int, *keys: int) -> np.random.Generator:
    entropy = [int(seed) & _MASK32, int(role)] + [int(k) for k in keys]
    if (entropy[1] in _TABLE_ROLES and keys
            and min(entropy[2:]) >= 0 and max(entropy[2:]) <= _MASK32):
        last = entropy.pop()
        seed_seq = _KeySeed(
            _chunk_keys(tuple(entropy), last // _CHUNK)[last % _CHUNK])
    else:
        seed_seq = np.random.SeedSequence(entropy)
    return np.random.Generator(np.random.Philox(seed_seq))


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
