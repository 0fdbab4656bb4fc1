"""Counter-keyed random streams.

Every sampling site derives its own Philox stream from (seed, role, keys),
so worker w / thread h / pass c draws the same numbers no matter how the
runtime schedules it, and a straight-line reference loop can reproduce an
engine trajectory by constructing the identical streams.

substream(seed, role, *keys) is
``Generator(Philox(SeedSequence([seed mod 2**32, role, *keys])))``.

The engine draws nothing from a per-pass stream, ROLE_SAMPLE
``[seed, role, w, h, pass]`` or ROLE_DELAY ``[seed, role, w, pass]``,
but its first few words, so it builds no generator for them. Philox is
counter-based, and numpy's bounded integers are Lemire's elementwise
method, so pass_indices and pass_uniforms hash the Philox keys of 256
consecutive passes at once with numpy arrays, run Philox4x64-10 on
uint64 arrays over them, and keep each chunk's draws as a read-only
table in a bounded LRU: at most 512 index tables of at most 256 x 32
int64 (32 MiB), and 512 delay tables of 256 pairs of Python floats
(28 KiB each, 14 MiB). A table costs about 0.6 ms to build, 2-3 us a
pass. The values are bitwise those of
``substream(...).integers(0, n, size=count)`` and of two
``Generator.random()`` calls. A pass falls back to ``substream`` when
numpy would draw differently or the table cannot hold it: a Lemire
leftover below ``(2**32 - n) % n`` (numpy redraws there), ``n`` outside
``[1, 2**32)`` (numpy's 64-bit path), ``count`` outside ``[1, 32]``, or a
key outside ``[0, 2**32)``.

Each role takes a fixed number of keys: SeedSequence pads entropy shorter
than four words with zeros, so ``substream(s, r)`` and ``substream(s, r, 0)``
are the same stream. pass_indices and pass_uniforms fix the count of the
two per-pass roles by their signatures.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

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

_CHUNK = 256  # passes per draw table


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


def _chunk_keys(prefix: tuple[int, ...], chunk: int) -> np.ndarray:
    """Philox keys, (CHUNK, 2) uint64, of entropy [*prefix, c] for the
    CHUNK consecutive c from chunk * CHUNK."""
    last = np.arange(chunk * _CHUNK, (chunk + 1) * _CHUNK, dtype=np.uint64)
    return _generate_state(_mixed_pool([*prefix, last]), 2, np.uint64).T


def substream(seed: int, role: int, *keys: int) -> np.random.Generator:
    entropy = [int(seed) & _MASK32, int(role)] + [int(k) for k in keys]
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy)))


def draw_indices(rng: np.random.Generator, n: int, size: int = 1):
    """Uniform component indices; an int for size 1, else an array."""
    if size == 1:
        return int(rng.integers(0, n))
    return rng.integers(0, n, size=size)


# Philox4x64-10 (Salmon et al., SC'11), as numpy's philox bit generator
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_DRAWS_PER_BLOCK = 8  # 32-bit halves of one 4 x 64-bit block
_MAX_COUNT = 32
_MAX_TABLES = 512


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit m * x, from four 32-bit products."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & _MASK32, x >> 32
    lo_lo = m_lo * x_lo
    mid = m_hi * x_lo + (lo_lo >> 32)
    mid2 = (mid & _MASK32) + m_lo * x_hi
    hi = m_hi * x_hi + (mid >> 32) + (mid2 >> 32)
    return hi, (mid2 << 32) | (lo_lo & _MASK32)


def _philox_words(keys: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 * blocks 64-bit outputs of Philox under each key row,
    in numpy's draw order: (rows, 4 * blocks) uint64. Block b runs
    counter b + 1, as a fresh generator's first draws do."""
    k0, k1 = keys[:, :1], keys[:, 1:]
    shape = (keys.shape[0], blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(keys.shape[0], -1)


@lru_cache(maxsize=_MAX_TABLES)
def _index_table(prefix: tuple[int, ...], chunk: int, n: int,
                 count: int) -> tuple[np.ndarray, frozenset]:
    """(values, redrawn) of the chunk's passes under entropy [*prefix, c].

    values is the read-only (CHUNK, count) int64 table of
    integers(0, n, size=count); redrawn holds the rows where numpy's
    Lemire rejection would have drawn again, whose values are not used.
    """
    words = _philox_words(_chunk_keys(tuple(map(int, prefix)), int(chunk)),
                          -(-count // _DRAWS_PER_BLOCK))
    halves = np.stack([words & _MASK32, words >> 32], axis=-1)  # low first
    scaled = halves.reshape(_CHUNK, -1)[:, :count] * np.uint64(n)
    values = (scaled >> 32).astype(np.int64)
    values.setflags(write=False)
    below = (scaled & _MASK32) < (2**32 - n) % n
    return values, frozenset(np.flatnonzero(below.any(axis=1)).tolist())


@lru_cache(maxsize=_MAX_TABLES)
def _delay_table(prefix: tuple[int, ...], chunk: int) -> tuple:
    """The first two doubles of each of the chunk's passes under entropy
    [*prefix, c], as Generator.random() makes them: (u64 >> 11) * 2**-53."""
    words = _philox_words(_chunk_keys(tuple(map(int, prefix)), int(chunk)),
                          1)[:, :2]
    return tuple(map(tuple, ((words >> 11) * 2.0**-53).tolist()))


def pass_indices(seed: int, w: int, h: int, pass_idx: int, n: int,
                 count: int) -> np.ndarray:
    """substream(seed, ROLE_SAMPLE, w, h, pass_idx).integers(0, n, size=count).

    Local thread h's indices for worker w's pass pass_idx, in draw order.
    From the draw table the array is a read-only view; a fallback pass
    (see the module docstring) gets numpy's own fresh array.
    """
    if (0 <= w <= _MASK32 and 0 <= h <= _MASK32 and 0 <= pass_idx <= _MASK32
            and isinstance(n, int) and 0 < n <= _MASK32
            and isinstance(count, int) and 0 < count <= _MAX_COUNT):
        chunk, row = divmod(pass_idx, _CHUNK)
        values, redrawn = _index_table((seed & _MASK32, ROLE_SAMPLE, w, h),
                                       chunk, n, count)
        if row not in redrawn:
            return values[row]
    return substream(seed, ROLE_SAMPLE, w, h, pass_idx).integers(
        0, n, size=count)


def pass_uniforms(seed: int, w: int, pass_idx: int) -> tuple[float, float]:
    """The first two Generator.random() draws of
    substream(seed, ROLE_DELAY, w, pass_idx): worker w's delay doubles
    for its pass pass_idx."""
    if 0 <= w <= _MASK32 and 0 <= pass_idx <= _MASK32:
        chunk, row = divmod(pass_idx, _CHUNK)
        return _delay_table((seed & _MASK32, ROLE_DELAY, w), chunk)[row]
    rng = substream(seed, ROLE_DELAY, w, pass_idx)
    return rng.random(), rng.random()
