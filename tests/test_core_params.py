import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpsgd.core import ParamVector, UpdateVector, apply_global_update
from dpsgd.errors import ConfigurationError, NumericFaultError


def test_param_vector_is_immutable():
    v = ParamVector(np.arange(4.0))
    with pytest.raises(ValueError):
        v.values[0] = 9.0
    c = v.copy_values()
    c[0] = 9.0
    assert v.values[0] == 0.0


def test_apply_result_is_a_fresh_read_only_vector():
    v = ParamVector(np.array([1.0, 2.0]))
    upd = UpdateVector(np.array([0.5, -0.5]), base_version=0, worker_id=0)
    out = apply_global_update(v, [upd], rho=1.0)
    assert not out.values.flags.writeable
    assert not np.shares_memory(out.values, v.values)
    assert not np.shares_memory(out.values, upd.delta)
    with pytest.raises(ValueError):
        out.values[0] = 9.0
    assert np.array_equal(v.values, [1.0, 2.0])


def test_param_vector_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        ParamVector(np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        ParamVector.zeros(0)


def test_apply_single_zero_update_is_identity():
    v = ParamVector(np.array([1.5, -2.0, 0.25]))
    upd = UpdateVector(np.zeros(3), base_version=0, worker_id=0)
    out = apply_global_update(v, [upd], rho=0.7)
    assert np.array_equal(out.values, v.values)


def test_apply_known_two_update_case():
    # hand-unrolled: v + rho * (d1 + d2) with exactly representable values
    v = ParamVector(np.array([1.0, 2.0]))
    d1 = UpdateVector(np.array([0.5, -1.0]), 0, 0)
    d2 = UpdateVector(np.array([0.25, 0.5]), 0, 1)
    out = apply_global_update(v, [d1, d2], rho=0.5)
    assert np.array_equal(out.values, np.array([1.375, 1.75]))


def test_apply_rejects_dim_mismatch_and_bad_rho():
    v = ParamVector.zeros(3)
    bad = UpdateVector(np.zeros(2), 0, 0)
    with pytest.raises(ConfigurationError):
        apply_global_update(v, [bad], rho=0.1)
    ok = UpdateVector(np.zeros(3), 0, 0)
    with pytest.raises(ConfigurationError):
        apply_global_update(v, [ok], rho=0.0)
    with pytest.raises(ConfigurationError):
        apply_global_update(v, [], rho=0.1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_apply_names_offending_dimension_on_nonfinite():
    v = ParamVector(np.array([0.0, 1e308, 0.0]))
    upd = UpdateVector(np.array([0.0, 1e308, 0.0]), 0, 0)
    with pytest.raises(NumericFaultError, match="dimension 1"):
        apply_global_update(v, [upd], rho=1e30)


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.lists(finite_floats, min_size=1, max_size=6), min_size=1, max_size=5),
    st.floats(min_value=1e-3, max_value=2.0),
    st.data(),
)
def test_apply_matches_direct_sum(dim, rows, rho, data):
    deltas = [np.resize(np.array(r, dtype=float), dim) for r in rows]
    v = ParamVector(np.zeros(dim))
    ups = [UpdateVector(d, 0, i) for i, d in enumerate(deltas)]
    out = apply_global_update(v, ups, rho)
    expected = np.zeros(dim)
    for d in deltas:
        expected += d
    expected = rho * expected
    assert np.allclose(out.values, expected, rtol=1e-12, atol=1e-12)
