"""The resampling moments give, for k rows of f values, k one-row answers.

``enumerated_moments``, ``conditional_mean``, ``conditional_variance`` and
``WeightedSample.estimate`` take f as its values at the points, shape
(m,) or (k, m).  A (k, m) call must give exactly (``==``) the k one-row
calls, and a one-row call exactly what the callable formulas gave, kept
below as references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smclimits import (
    MULTINOMIAL,
    RESIDUAL,
    WeightedSample,
    conditional_mean,
    conditional_variance,
)
from smclimits.enumeration import _all_tuples, enumerated_moments
from smclimits.resampling import _residual_alloc


def _f_values(sample, f):
    vals = np.fromiter((f(p) for p in range(sample.size)), dtype=float, count=sample.size)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand")
    return vals


def reference_estimate(sample, f):
    vals = np.fromiter((f(p) for p in range(sample.size)), dtype=float, count=sample.size)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand")
    return float(np.sum(sample.weights * vals)) / sample.total


def reference_mean(scheme, sample, f, m_out):
    vals = _f_values(sample, f)
    if scheme == MULTINOMIAL:
        return float(np.sum(sample.weights * vals)) / sample.total
    if scheme == RESIDUAL:
        floors, probs, m_bar = _residual_alloc(sample.weights, sample.total, m_out)
        det = float(np.sum(floors * vals))
        if probs is None:
            return det / m_out
        return (det + (m_out - m_bar) * float(np.sum(probs * vals))) / m_out
    raise ValueError(f"unknown resampling scheme {scheme!r}")


def reference_variance(scheme, sample, f, m_out):
    vals = _f_values(sample, f)
    if scheme == MULTINOMIAL:
        p = sample.weights / sample.total
        mean = float(np.sum(p * vals))
        return (float(np.sum(p * vals * vals)) - mean * mean) / m_out
    if scheme == RESIDUAL:
        floors, probs, m_bar = _residual_alloc(sample.weights, sample.total, m_out)
        if probs is None:
            return 0.0
        mean = float(np.sum(probs * vals))
        var1 = float(np.sum(probs * vals * vals)) - mean * mean
        return (m_out - m_bar) * var1 / (m_out * m_out)
    raise ValueError(f"unknown resampling scheme {scheme!r}")


def reference_tuples(n_values, length):
    if length == 0:
        return np.empty((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(n_values)] * length), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def reference_enumerated(scheme, sample, f_values, m_out):
    f_values = np.asarray(f_values, dtype=float)
    m = sample.size
    if scheme == MULTINOMIAL:
        p = sample.weights / sample.total
        outcomes = reference_tuples(m, m_out)
        probs = np.prod(p[outcomes], axis=1)
        averages = np.mean(f_values[outcomes], axis=1)
    elif scheme == RESIDUAL:
        floors, probs_res, m_bar = _residual_alloc(sample.weights, sample.total, m_out)
        deterministic = float(np.sum(floors * f_values))
        if probs_res is None:
            return deterministic / m_out, 0.0
        outcomes = reference_tuples(m, m_out - m_bar)
        probs = np.prod(probs_res[outcomes], axis=1)
        averages = (deterministic + np.sum(f_values[outcomes], axis=1)) / m_out
    else:
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    mean = float(np.dot(probs, averages))
    second = float(np.dot(probs, averages * averages))
    return mean, second - mean * mean


# zeros leave particles out, the fixed values make ties and exact integer
# targets, and 1e-30 entries sit far below their neighbours
_weight = st.one_of(
    st.just(0.0),
    st.just(1e-30),
    st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)
_value = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.3]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _cases(draw):
    m = draw(st.integers(1, 4))
    weights = draw(st.lists(_weight, min_size=m, max_size=m))
    if not any(w > 0.0 for w in weights):
        weights[draw(st.integers(0, m - 1))] = 1.0
    k = draw(st.integers(1, 5))
    table = draw(
        st.lists(st.lists(_value, min_size=m, max_size=m), min_size=k, max_size=k)
    )
    return WeightedSample(weights), np.array(table)


_SCHEMES = st.sampled_from([MULTINOMIAL, RESIDUAL])


class TestRowsAreOneRowCalls:
    @settings(max_examples=300, deadline=None)
    @given(case=_cases(), m_out=st.integers(1, 4), scheme=_SCHEMES)
    def test_rows_equal_one_row_calls_and_the_callable_formulas(self, case, m_out, scheme):
        sample, table = case
        # a column-major copy: the rows the functions see are strided
        strided = np.asfortranarray(table)
        means_enum, vars_enum = enumerated_moments(scheme, sample, strided, m_out)
        means = conditional_mean(scheme, sample, strided, m_out)
        variances = conditional_variance(scheme, sample, strided, m_out)
        estimates = sample.estimate(strided)
        for i, row in enumerate(table):
            f = lambda p, row=row: float(row[p])
            one_enum = enumerated_moments(scheme, sample, row, m_out)
            assert (means_enum[i], vars_enum[i]) == one_enum
            assert one_enum == reference_enumerated(scheme, sample, row, m_out)
            one_mean = conditional_mean(scheme, sample, row, m_out)
            assert means[i] == one_mean == reference_mean(scheme, sample, f, m_out)
            one_var = conditional_variance(scheme, sample, row, m_out)
            assert variances[i] == one_var == reference_variance(scheme, sample, f, m_out)
            assert estimates[i] == sample.estimate(row) == reference_estimate(sample, f)

    def test_one_row_gives_floats_and_rows_give_arrays(self):
        sample = WeightedSample([0.5, 0.3, 0.2])
        row = np.array([0.0, 1.0, 2.0])
        for scheme in (MULTINOMIAL, RESIDUAL):
            assert isinstance(conditional_mean(scheme, sample, row, 4), float)
            assert isinstance(conditional_variance(scheme, sample, row, 4), float)
            assert all(type(v) is float for v in enumerated_moments(scheme, sample, row, 4))
            assert conditional_mean(scheme, sample, row[None, :], 4).shape == (1,)
            assert all(v.shape == (1,) for v in enumerated_moments(scheme, sample, row[None], 4))


class TestValueChecks:
    @pytest.mark.parametrize("scheme", [MULTINOMIAL, RESIDUAL])
    @pytest.mark.parametrize(
        "fn",
        [conditional_mean, conditional_variance, enumerated_moments],
        ids=["mean", "variance", "enumerated"],
    )
    def test_non_finite_and_misshapen_values_rejected(self, scheme, fn):
        sample = WeightedSample([1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite integrand"):
            fn(scheme, sample, [0.0, float("nan")], 2)
        with pytest.raises(ValueError, match="non-finite integrand"):
            fn(scheme, sample, [[0.0, 1.0], [float("inf"), 1.0]], 2)
        with pytest.raises(ValueError, match="f_values must have shape"):
            fn(scheme, sample, [0.0, 1.0, 2.0], 2)

    @pytest.mark.parametrize("m_out", [0, -1])
    @pytest.mark.parametrize("scheme", [MULTINOMIAL, RESIDUAL])
    @pytest.mark.parametrize(
        "fn",
        [conditional_mean, conditional_variance, enumerated_moments],
        ids=["mean", "variance", "enumerated"],
    )
    def test_empty_output_rejected(self, scheme, fn, m_out):
        # at m_out 0 the multinomial variance was inf, and at -1 it was negative
        sample = WeightedSample([1.0, 3.0])
        with pytest.raises(ValueError, match="m_out must be >= 1"):
            fn(scheme, sample, [0.0, 1.0], m_out)


class TestOutcomeTables:
    @pytest.mark.parametrize("n_values, length", [(1, 0), (3, 1), (2, 3), (4, 4)])
    def test_memoized_read_only_and_as_listed(self, n_values, length):
        table = _all_tuples(n_values, length)
        assert _all_tuples(n_values, length) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
        np.testing.assert_array_equal(table, reference_tuples(n_values, length))
        assert table.dtype == reference_tuples(n_values, length).dtype
