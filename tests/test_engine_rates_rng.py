import math
import random
import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsgd.engine import (
    draw_indices,
    feasibility_warnings,
    noise_scale_constant,
    rescale_rate,
    substream,
    theory_constant_rate,
)
from dpsgd.engine import rng
from dpsgd.engine.rng import (
    ROLE_DELAY,
    ROLE_ENV,
    ROLE_INIT,
    ROLE_SAMPLE,
    _generate_state,
    _mixed_pool,
    pass_indices,
    pass_uniforms,
)
from dpsgd.errors import ConfigurationError


def test_constant_rate_known_value():
    # hand evaluation: rho^2 = sqrt(1) / (2 * 0.5 * sqrt(16*2*8)) = 1/16
    rho = theory_constant_rate(1.0, A=2.0, alpha=0.5, T=16, M=2, Btilde=8)
    assert rho == pytest.approx(0.25, rel=1e-15)


def test_constant_rate_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        theory_constant_rate(0.0, 1.0, 1.0, 1, 1, 1)
    with pytest.raises(ConfigurationError):
        theory_constant_rate(1.0, -1.0, 1.0, 1, 1, 1)
    with pytest.raises(ConfigurationError):
        theory_constant_rate(1.0, 1.0, 1.0, 0, 1, 1)


def test_noise_scale_known_value():
    # L=1, V=1, alpha=1, mu=0.5: 1/1 + 1/1 + 2*0.5/0.5 = 4
    assert noise_scale_constant(1.0, 1.0, 1.0, 0.5) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(ConfigurationError):
        noise_scale_constant(1.0, 1.0, 1.0, 1.5)


def test_rescale_rate_quarter_power():
    # frozen high-precision evaluation of 0.1 / 30**0.25
    got = rescale_rate(0.1, (1, 1, 1), (2, 5, 3))
    assert got == pytest.approx(0.04272870063962340654413931, rel=1e-15)


def test_rescale_rate_exact_on_power_of_two_ratio():
    # 16x more work, fourth root is exactly 2: new rate is exactly half
    assert rescale_rate(0.1, (1, 1, 1), (2, 4, 2)) == 0.05


def test_rescale_rate_identity_and_validation():
    assert rescale_rate(0.3, (2, 5, 3), (2, 5, 3)) == 0.3
    with pytest.raises(ConfigurationError):
        rescale_rate(0.0, (1, 1, 1), (1, 1, 1))
    with pytest.raises(ConfigurationError):
        rescale_rate(0.1, (0, 1, 1), (1, 1, 1))


def test_rescale_round_trip_is_identity():
    rho = 0.1234
    there = rescale_rate(rho, (1, 2, 3), (4, 5, 6))
    back = rescale_rate(there, (4, 5, 6), (1, 2, 3))
    assert back == pytest.approx(rho, rel=1e-14)


def test_feasibility_warnings_fire_and_clear():
    quiet = feasibility_warnings(
        eta=1e-4, rho=1e-4, L=0.1, mu=0.99, D=0, D_prime=0, M=1, Btilde=1
    )
    # the contraction inequality is extremely restrictive; the delay
    # inequality with D'=0 is trivially satisfied
    assert all("delay" not in w for w in quiet)
    loud = feasibility_warnings(
        eta=0.5, rho=0.9, L=10.0, mu=0.5, D=3, D_prime=5, M=4, Btilde=8
    )
    assert any("delay feasibility" in w for w in loud)


def test_substream_reproducible_and_keyed():
    a = substream(7, ROLE_SAMPLE, 1, 2, 3).integers(0, 1000, size=8)
    b = substream(7, ROLE_SAMPLE, 1, 2, 3).integers(0, 1000, size=8)
    c = substream(7, ROLE_SAMPLE, 1, 2, 4).integers(0, 1000, size=8)
    d = substream(7, ROLE_DELAY, 1, 2, 3).integers(0, 1000, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_draw_indices_shapes():
    rng = substream(1, ROLE_SAMPLE, 0)
    one = draw_indices(rng, 50)
    assert isinstance(one, int) and 0 <= one < 50
    many = draw_indices(substream(1, ROLE_SAMPLE, 0), 50, size=6)
    assert many.shape == (6,) and (many < 50).all()


def _same_state(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for k in a:
        x, y = a[k], b[k]
        if isinstance(x, dict):
            if not _same_state(x, y):
                return False
        elif isinstance(x, np.ndarray):
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
        elif type(x) is not type(y) or x != y:
            return False
    return True


def _numpy_stream(words) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def _assert_same_stream(a: np.random.Generator, b: np.random.Generator):
    assert _same_state(a.bit_generator.state, b.bit_generator.state)
    assert np.array_equal(a.integers(0, 2**63, size=5),
                          b.integers(0, 2**63, size=5))
    assert np.array_equal(a.random(3), b.random(3))
    assert _same_state(a.bit_generator.state, b.bit_generator.state)


word = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]),
                 st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(words=st.lists(word, min_size=2, max_size=7))
def test_substream_keys_match_numpy_seed_sequence(words):
    _assert_same_stream(substream(*words), _numpy_stream(words))


@settings(max_examples=200, deadline=None)
@given(words=st.lists(word, min_size=1, max_size=7),
       n_words=st.integers(0, 9),
       dtype=st.sampled_from([np.uint32, np.uint64, "u4", "<u8"]))
def test_seed_state_matches_numpy_generate_state(words, n_words, dtype):
    got = _generate_state(_mixed_pool(words), n_words, dtype)
    want = np.random.SeedSequence(words).generate_state(n_words, dtype)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_seed_state_rejects_other_dtypes_like_numpy():
    for words in ([1, 2, 3], [1, 2, 3, 4, 5]):
        for dtype in (np.int64, np.float64):
            with pytest.raises(ValueError):
                np.random.SeedSequence(words).generate_state(2, dtype)
            with pytest.raises(ValueError):
                _generate_state(_mixed_pool(words), 2, dtype)


def fresh_draw_tables(monkeypatch):
    """Empty draw tables for pass_indices and pass_uniforms; returns the
    (prefix, chunk) list of the tables they build."""
    built = []
    for name in ("_index_table", "_delay_table"):
        build = getattr(rng, name).__wrapped__

        def recording(prefix, chunk, *shape, build=build):
            built.append((prefix, chunk))  # atomic across threads
            return build(prefix, chunk, *shape)

        monkeypatch.setattr(rng, name,
                            lru_cache(maxsize=rng._MAX_TABLES)(recording))
    return built


def _assert_pass_streams_match_numpy(seed, w, h, c):
    _assert_same_stream(substream(seed, ROLE_SAMPLE, w, h, c),
                        _numpy_stream([seed, ROLE_SAMPLE, w, h, c]))
    _assert_same_stream(substream(seed, ROLE_DELAY, w, c),
                        _numpy_stream([seed, ROLE_DELAY, w, c]))


@pytest.mark.parametrize("c", [0, 255, 256, 257, 2**32 - 1])
@pytest.mark.parametrize("edge", [0, 2**32 - 1])
def test_pass_streams_match_numpy_at_chunk_edges(c, edge):
    _assert_pass_streams_match_numpy(edge, edge, edge, c)
    _assert_pass_streams_match_numpy(7, edge, 1, c)


@settings(max_examples=200, deadline=None)
@given(seed=word, w=word, h=word, c=st.integers(0, 2**32 - 1))
def test_pass_streams_match_numpy_seed_sequence(seed, w, h, c):
    _assert_pass_streams_match_numpy(seed, w, h, c)


def test_concurrent_pass_streams_across_a_chunk_boundary(monkeypatch):
    # the threaded runtime's local threads call substream, and draw from
    # the tables, at once
    tables = fresh_draw_tables(monkeypatch)
    key_of = lambda gen: gen.bit_generator.state["state"]["key"]
    passes = list(range(200, 312))
    barrier = threading.Barrier(4)
    got = [{} for _ in range(4)]

    def ask(h):
        order = random.Random(h).sample(passes, len(passes))
        barrier.wait(timeout=10)
        for c in order:
            got[h][c] = (key_of(substream(3, ROLE_SAMPLE, 1, 0, c)),
                         pass_indices(3, 1, 0, c, 2000, 8),
                         pass_uniforms(3, 1, c))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(h,)) for h in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for c in passes:
        sample = _numpy_stream([3, ROLE_SAMPLE, 1, 0, c])
        want_key = key_of(sample)
        want_indices = sample.integers(0, 2000, size=8)
        delay = _numpy_stream([3, ROLE_DELAY, 1, c])
        want_uniforms = (delay.random(), delay.random())
        for h in range(4):
            key, indices, uniforms = got[h][c]
            assert np.array_equal(key, want_key)
            assert np.array_equal(indices, want_indices)
            assert uniforms == want_uniforms
    assert {chunk for _, chunk in tables} == {0, 1}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(2**32, 2**70) | st.integers(-(2**40), -1),
       keys=st.lists(word, min_size=0, max_size=5))
def test_substream_masks_the_seed_to_32_bits(seed, keys):
    words = [seed & 0xFFFFFFFF, ROLE_SAMPLE] + keys
    _assert_same_stream(substream(seed, ROLE_SAMPLE, *keys),
                        _numpy_stream(words))


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(word, min_size=3, max_size=5), big=st.integers(2**32, 2**80),
       at=st.integers(0, 4))
def test_substream_wide_keys_take_numpy_path(keys, big, at):
    # numpy splits a wide key into several 32-bit words
    keys.insert(min(at, len(keys)), big)
    _assert_same_stream(substream(5, ROLE_SAMPLE, *keys),
                        _numpy_stream([5, ROLE_SAMPLE] + keys))


@pytest.mark.parametrize("keys", [(-1,), (0, 0, -1), (1, 2, 3, -5)])
def test_substream_negative_key_raises_like_numpy(keys):
    with pytest.raises(Exception) as numpy_err:
        np.random.SeedSequence([5, ROLE_SAMPLE, *keys])
    with pytest.raises(numpy_err.type):
        substream(5, ROLE_SAMPLE, *keys)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       role=st.sampled_from([ROLE_SAMPLE, ROLE_DELAY, ROLE_INIT, ROLE_ENV]),
       data=st.data())
def test_substream_keys_disjoint_across_keys_and_stable(seed, role, data):
    # one role always takes the same number of keys; numpy pads entropy
    # shorter than 4 words with zeros, so (s, r) and (s, r, 0) would meet
    n_keys = data.draw(st.integers(0, 4))
    keys = st.tuples(*[st.integers(0, 2**32 - 1)] * n_keys)
    a = data.draw(keys)
    b = data.draw(keys.filter(lambda k: k != a))
    other_role = data.draw(st.sampled_from(
        [r for r in (ROLE_SAMPLE, ROLE_DELAY, ROLE_INIT, ROLE_ENV) if r != role]))
    key_of = lambda *args: tuple(substream(*args).bit_generator.state["state"]["key"])
    assert key_of(seed, role, *a) != key_of(seed, role, *b)
    assert key_of(seed, role, *a) != key_of(seed, other_role, *a)
    _assert_same_stream(substream(seed, role, *a), substream(seed, role, *a))


@pytest.mark.parametrize("n", [1, 2, 7, 200, 2000, 2**31 - 1, 2**32, 2**40])
@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("steps", [1, 2, 5])
def test_one_pass_draw_equals_per_step_draws(n, size, steps):
    for pass_idx in range(4):
        draws = pass_indices(9, 1, 0, pass_idx, n, steps * size)
        each = substream(9, ROLE_SAMPLE, 1, 0, pass_idx)
        # a local thread's steps are the rows of its pass draw
        got = draws.reshape(steps, size)
        want = [np.atleast_1d(draw_indices(each, n, size))
                for _ in range(steps)]
        assert len(got) == steps
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
            # rows of the draw table are read-only; n >= 2**32 falls
            # back to numpy's own array
            assert g.flags.writeable == (n >= 2**32)


def _numpy_pass_draws(seed, w, h, c, n, count):
    """(integers(0, n, size=count), whether numpy drew more than count
    32-bit words for them) on the pass's sample stream."""
    drawn = substream(seed, ROLE_SAMPLE, w, h, c)
    values = drawn.integers(0, n, size=count)
    exact = substream(seed, ROLE_SAMPLE, w, h, c)
    exact.integers(0, 2**32, size=count, dtype=np.uint32)
    redrawn = n > 1 and not _same_state(drawn.bit_generator.state,
                                        exact.bit_generator.state)
    return values, redrawn


def _assert_pass_draws_match_numpy(seed, w, h, c, n, count):
    want, redrawn = _numpy_pass_draws(seed, w, h, c, n, count)
    got = pass_indices(seed, w, h, c, n, count)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    in_table = (max(w, h, c) <= 2**32 - 1 and n <= 2**32 - 1
                and count <= rng._MAX_COUNT)
    # a table row is read-only; a fallback pass gets numpy's own array
    assert got.flags.writeable == (redrawn or not in_table)
    if got.flags.writeable:
        got[:] = 0  # the caller's to keep: the table is untouched
        assert np.array_equal(pass_indices(seed, w, h, c, n, count), want)
    delay = substream(seed, ROLE_DELAY, w, c)
    assert pass_uniforms(seed, w, c) == (delay.random(), delay.random())


EDGE_N = [1, 2, 2000, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**40]


@pytest.mark.parametrize("n", EDGE_N)
def test_pass_draws_match_numpy_at_edges(n):
    # counts of 1-3 Philox blocks; at 2**31 + 1 about half of all draws
    # are redrawn by numpy, so most rows take the fallback
    for seed in (2**32 + 5, 0):
        for count in (1, 3, 8, 9, 17):
            for c in (0, 255, 256, 257, 2**32 - 1):
                _assert_pass_draws_match_numpy(seed, 3, 1, c, n, count)


@settings(max_examples=200, deadline=None)
@given(seed=word | st.integers(2**32, 2**70), w=word, h=word,
       c=st.integers(0, 600) | st.integers(0, 2**33),
       n=st.sampled_from(EDGE_N) | st.integers(1, 2**40),
       count=st.integers(1, 40))
def test_pass_draws_match_numpy(seed, w, h, c, n, count):
    _assert_pass_draws_match_numpy(seed, w, h, c, n, count)


def test_pass_draw_tables_are_read_only():
    values = pass_indices(4, 0, 0, 0, 2000, 8)
    with pytest.raises(ValueError):
        values[0] = 1
    with pytest.raises(ValueError):
        values.reshape(2, 4)[0, 0] = 1
    with pytest.raises(TypeError):
        pass_uniforms(4, 0, 0)[0] = 0.5
