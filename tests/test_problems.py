import re

import numpy as np
import pytest
from _oracles import same_bits, sigmoid_coeff_reference
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dpsgd.engine import ProblemSpec, build_oracle
from dpsgd.errors import ConfigurationError
from dpsgd.problems import (
    QuadraticOracle,
    SigmoidOracle,
    make_oracle,
    oracle_names,
)

ORACLES = [
    QuadraticOracle(n=40, dim=6, seed=11),
    SigmoidOracle(n=40, dim=6, seed=12),
]


def component_loss(oracle, i, x):
    # scalar loss of one component, from the oracle's own data
    if isinstance(oracle, QuadraticOracle):
        d = np.asarray(x) - oracle.centers[i]
        return 0.5 * float(d @ d)
    z = oracle.labels[i] * float(oracle.features[i] @ np.asarray(x))
    return 1.0 / (1.0 + np.exp(z))


def fd_grad(oracle, i, x, h=1e-5):
    # independent central-difference oracle
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (component_loss(oracle, i, x + e) - component_loss(oracle, i, x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_grad_matches_central_differences_at_100_points(oracle):
    rng = np.random.default_rng(99)
    for _ in range(100):
        i = int(rng.integers(oracle.n))
        x = rng.uniform(-1.5, 1.5, size=oracle.dim)
        g = oracle.grad_at(i, x)
        fd = fd_grad(oracle, i, x)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(g - fd) / denom <= 1e-6


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_mean_of_component_grads_equals_full_grad(oracle):
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=oracle.dim)
        mean_g = np.mean([oracle.grad_at(i, x) for i in range(oracle.n)], axis=0)
        assert np.allclose(mean_g, oracle.full_grad(x), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_batch_grad_is_average_of_members(oracle):
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, size=oracle.dim)
    idx = rng.integers(0, oracle.n, size=7)
    batch = oracle.grad_at(idx, x)
    direct = np.mean([oracle.grad_at(int(i), x) for i in idx], axis=0)
    assert np.allclose(batch, direct, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_declared_smoothness_holds_on_box(oracle):
    rng = np.random.default_rng(7)
    lo, hi = oracle.box
    for _ in range(1000):
        x = rng.uniform(lo, hi, size=oracle.dim)
        y = rng.uniform(lo, hi, size=oracle.dim)
        lhs = np.linalg.norm(oracle.full_grad(x) - oracle.full_grad(y))
        assert lhs <= oracle.L * np.linalg.norm(x - y) + 1e-9


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_component_grad_norm_within_declared_bound(oracle):
    rng = np.random.default_rng(8)
    lo, hi = oracle.box
    for _ in range(500):
        i = int(rng.integers(oracle.n))
        x = rng.uniform(lo, hi, size=oracle.dim)
        assert np.linalg.norm(oracle.grad_at(i, x)) <= oracle.V_bound + 1e-12


def test_quadratic_full_grad_zero_at_anchor_mean():
    q = ORACLES[0]
    g = q.full_grad(q.minimiser())
    assert np.linalg.norm(g) <= 1e-12


def test_sigmoid_loss_decreases_along_negative_full_grad():
    s = ORACLES[1]
    rng = np.random.default_rng(21)
    x = rng.normal(size=s.dim)
    g = s.full_grad(x)
    before = s.loss_at(x)
    after = s.loss_at(x - 0.5 * g)
    assert after < before


def test_index_validation_and_registry():
    q = ORACLES[0]
    with pytest.raises(ConfigurationError):
        q.grad_at(q.n, np.zeros(q.dim))
    with pytest.raises(ConfigurationError):
        q.grad_at(-1, np.zeros(q.dim))
    with pytest.raises(ConfigurationError):
        q.grad_at(np.array([], dtype=int), np.zeros(q.dim))
    with pytest.raises(ConfigurationError):
        make_oracle("nope")
    with pytest.raises(ConfigurationError):
        make_oracle("quadratic", bogus=1)
    assert "sigmoid" in oracle_names()


@pytest.mark.parametrize("name, params", [
    ("quadratic", {"n": 5}),
    ("quadratic", {"n": 5, "dim": 2}),
    ("quadratic", {"box_radius": 5.0}),
    ("sigmoid", {"label_noise": 0.0, "box_radius": 5.0}),
])
def test_build_oracle_refuses_any_param(name, params):
    # n, dim and the data seed come from the spec and nothing else: a
    # params field neither overrides one nor sets a constant
    spec = ProblemSpec(name=name, n=100, dim=4, params=params)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"fields {sorted(params)}")):
        build_oracle(spec, 0)
    oracle = build_oracle(ProblemSpec(name=name, n=100, dim=4), 0)
    assert (oracle.n, oracle.dim, oracle.box) == (100, 4, (-10.0, 10.0))


NON_INTEGER_INDICES = [1.9, [0.5, 2.2], np.array([1.0]), True, [True, False],
                       "3", ["1"], np.float64(2.0), None]


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
@pytest.mark.parametrize("index", NON_INTEGER_INDICES)
def test_non_integer_indices_are_rejected(oracle, index):
    # these used to be truncated or cast: 1.9 ran component 1, True ran 1
    with pytest.raises(ConfigurationError, match="integer"):
        oracle.grad_at(index, np.zeros(oracle.dim))


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64])
def test_any_integer_index_dtype_is_accepted(oracle, dtype):
    x = np.linspace(-0.5, 0.5, oracle.dim)
    want = oracle.grad_at(np.array([3, 0, 3]), x)
    assert np.array_equal(oracle.grad_at(np.array([3, 0, 3], dtype=dtype), x),
                          want)
    assert np.array_equal(oracle.grad_at(dtype(7), x), oracle.grad_at(7, x))


def test_wide_unsigned_index_is_out_of_range_not_wrapped():
    q = ORACLES[0]
    with pytest.raises(ConfigurationError, match="out of range"):
        q.grad_at(np.array([2**64 - 1], dtype=np.uint64), np.zeros(q.dim))


def test_sigmoid_full_grad_and_loss_equal_the_gathered_forms():
    s = ORACLES[1]
    x = np.random.default_rng(4).normal(size=s.dim)
    every = np.arange(s.n)
    assert np.array_equal(s.full_grad(x), s.grad_at(every, x))
    z = s.labels[every] * (s.features[every] @ x)
    assert s.loss_at(x) == float((1.0 / (1.0 + np.exp(z))).mean())


def test_row_mean_gradients_equal_numpy_mean():
    x = np.random.default_rng(5).normal(size=6)
    for idx in ([4], [1, 7, 7, 30], list(range(40))):
        q, s = ORACLES[0], ORACLES[1]
        assert np.array_equal(q.grad_at(idx, x),
                              x - q.centers[idx].mean(axis=0))
        z = s.labels[idx] * (s.features[idx] @ x)
        sig = 1.0 / (1.0 + np.exp(-z))
        coeff = -s.labels[idx] * sig * (1.0 - sig)
        assert np.array_equal(s.grad_at(idx, x),
                              (coeff[:, None] * s.features[idx]).mean(axis=0))


def test_same_seed_regenerates_identical_data():
    a = QuadraticOracle(n=10, dim=3, seed=123)
    b = QuadraticOracle(n=10, dim=3, seed=123)
    assert np.array_equal(a.centers, b.centers)
    c = SigmoidOracle(n=10, dim=3, seed=123)
    d = SigmoidOracle(n=10, dim=3, seed=123)
    assert np.array_equal(c.features, d.features)
    assert np.array_equal(c.labels, d.labels)


STACK_CLASSES = (QuadraticOracle, SigmoidOracle)


@settings(max_examples=120, deadline=None)
@given(cls=st.sampled_from(STACK_CLASSES),
       dim=st.sampled_from([1, 2, 3, 7, 20, 64, 257]) | st.integers(1, 40),
       size=st.integers(1, 33), K=st.integers(1, 32),
       seed=st.integers(0, 2**32 - 1))
# a lone column (dim 1) reduces pairwise from 8 rows up, and K = 1 is a
# single matrix-vector product: both must still add in grad_at's order
@example(cls=QuadraticOracle, dim=1, size=8, K=1, seed=0)
@example(cls=SigmoidOracle, dim=1, size=8, K=1, seed=0)
@example(cls=QuadraticOracle, dim=1, size=33, K=32, seed=1)
@example(cls=SigmoidOracle, dim=1, size=33, K=32, seed=1)
@example(cls=SigmoidOracle, dim=2000, size=4, K=8, seed=2)
def test_grad_stack_rows_equal_grad_at_bitwise(cls, dim, size, K, seed):
    oracle = cls(n=50, dim=dim, seed=seed)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, oracle.n, size=(K, size))
    X = 3.0 * rng.normal(size=(K, dim))
    G = oracle.grad_stack(idx, X)
    assert G.shape == (K, dim)
    for k in range(K):
        # the simulator passes size-1 batches to grad_at as Python ints
        i = int(idx[k, 0]) if size == 1 else idx[k]
        assert np.array_equal(G[k], oracle.grad_at(i, X[k]))


@pytest.mark.parametrize("oracle", ORACLES[:2], ids=["quadratic", "sigmoid"])
def test_grad_stack_checks_its_index_block_and_points(oracle):
    X = np.zeros((2, oracle.dim))
    ok = np.array([[0, 1], [2, 3]])
    with pytest.raises(ConfigurationError, match="out of range"):
        oracle.grad_stack(np.array([[0, 1], [2, oracle.n]]), X)
    with pytest.raises(ConfigurationError, match="out of range"):
        oracle.grad_stack(np.array([[0, -1], [2, 3]]), X)
    with pytest.raises(ConfigurationError, match="integer"):
        oracle.grad_stack(ok.astype(float), X)
    with pytest.raises(ConfigurationError, match="empty"):
        oracle.grad_stack(np.zeros((2, 0), dtype=int), X)
    for bad_idx, bad_X in ((ok[0], X), (ok, X[0]), (ok, X[:1]),
                           (ok, np.zeros((2, oracle.dim + 1)))):
        with pytest.raises(ConfigurationError, match="grad_stack needs"):
            oracle.grad_stack(bad_idx, bad_X)


# the margins and labels a coefficient can meet: signed zeros, infinities,
# margins whose exp overflows, and the oracle's +-1 labels among others
margins = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 709.0, 710.0, -745.5,
                           1e300]) | st.floats(allow_nan=False)
labels = st.sampled_from([1.0, -1.0]) | st.floats(allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), size=st.integers(1, 12))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_coefficient_is_bitwise_the_negated_margin_form(data, size):
    y = data.draw(arrays(np.float64, size, elements=labels))
    m = data.draw(arrays(np.float64, size, elements=margins))
    assert same_bits(SigmoidOracle._coeff(-y, m), sigmoid_coeff_reference(y, m))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), K=st.integers(1, 4), size=st.integers(1, 5))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_kernel_is_bitwise_the_negated_margin_form(data, K, size):
    # the kernel writes the coefficient out; X reaches the extremes
    oracle = SigmoidOracle(n=30, dim=3, seed=5)
    idx = data.draw(arrays(np.int64, (K, size), elements=st.integers(0, 29)))
    X = data.draw(arrays(np.float64, (K, 3), elements=margins))
    G = oracle.grad_stack(idx, X)
    for k in range(K):
        rows = oracle.features[idx[k]]
        coeff = sigmoid_coeff_reference(oracle.labels[idx[k]], rows @ X[k])
        want = np.add.reduce(coeff[:, None] * rows, axis=0) / size
        assert same_bits(G[k], want)
