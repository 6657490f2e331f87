"""The filter's two inverse-CDF draws give the indices of their plain forms.

``categorical_indices`` searches its keys in sorted order and
``_rows_categorical`` counts table columns one at a time.  Both must give,
for the same uniforms, exactly the indices of the plain formulas kept
below as references: same values, same dtype, same draw order.  A
subnormal weight total is scaled by a power of two before either draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smclimits import DiscreteHMM, ResamplingPolicy
from smclimits.resampling import categorical_indices
from smclimits.state_space import _rows_categorical, smc_init


def reference_categorical(weights, n_draws, rng):
    cum = np.cumsum(weights)
    if 0.0 < cum[-1] < np.finfo(float).tiny:
        cum = np.cumsum(np.ldexp(weights, -np.frexp(cum[-1])[1]))
    idx = np.searchsorted(cum, rng.random(n_draws) * cum[-1], side="right")
    return np.minimum(idx, weights.size - 1)


def reference_rows(cum_rows, rng):
    u = rng.random(cum_rows.shape[0]) * cum_rows[:, -1]
    idx = np.sum(cum_rows <= u[:, None], axis=1)
    return np.minimum(idx, cum_rows.shape[1] - 1)


class StubGenerator:
    """Hands out fixed uniforms in order, the way ``Generator.random`` would."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.used = 0

    def random(self, n):
        out = self.uniforms[self.used : self.used + n]
        assert out.size == n, "the draw read more uniforms than it was given"
        self.used += n
        return out.copy()


def _generators(seed):
    return (np.random.default_rng(np.random.SeedSequence(seed)) for _ in range(2))


def _assert_same(new, old):
    assert new.dtype == old.dtype
    np.testing.assert_array_equal(new, old)


# zeros make runs of equal cumsums, the fixed values make ties, and 1e-300
# entries sit many orders below their neighbours
_weight = st.one_of(
    st.just(0.0),
    st.just(1e-300),
    st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


class TestSortedSearch:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(_weight, min_size=1, max_size=40),
        n_draws=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_plain_search(self, weights, n_draws, seed):
        weights = np.array(weights)
        new_rng, old_rng = _generators(seed)
        _assert_same(
            categorical_indices(weights, n_draws, new_rng),
            reference_categorical(weights, n_draws, old_rng),
        )
        assert new_rng.random() == old_rng.random()  # the same uniforms were read

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0, 1.0, 2.0, 0.0, 4.0],  # cumsums 1 2 4 4 8: every key below is one of them
            [0.0, 0.0, 8.0],
            [8.0],
            [5e-324],  # a subnormal total, scaled to 0.5 before the draw
            [0.0, 5e-324, 0.0],
            [0.0, 0.0],
        ],
    )
    def test_boundary_keys(self, weights):
        weights = np.array(weights)
        total = np.cumsum(weights)[-1]
        on_cumsums = np.cumsum(weights) / total if total > 0 else np.zeros(weights.size)
        uniforms = np.concatenate(
            [[0.0, 1.0 - 2.0**-53, 0.5], on_cumsums[on_cumsums < 1.0], [0.0, 1.0 - 2.0**-53]]
        )
        n = uniforms.size
        _assert_same(
            categorical_indices(weights, n, StubGenerator(uniforms)),
            reference_categorical(weights, n, StubGenerator(uniforms)),
        )

    def test_keys_on_cumsums_go_right(self):
        # a key equal to a cumsum entry lands after the last entry it equals
        idx = categorical_indices(
            np.array([1.0, 1.0, 2.0, 0.0, 4.0]), 5, StubGenerator([0.5, 0.125, 0.0, 0.25, 0.75])
        )
        np.testing.assert_array_equal(idx, [4, 1, 0, 2, 4])


@st.composite
def _row_stochastic(draw):
    n = draw(st.integers(2, 5))
    zero_columns = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    entries = draw(
        st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    table = np.array(entries)
    table[:, sorted(zero_columns)] = 0.0
    for row in table:
        if row.sum() == 0.0:
            row[min(set(range(n)) - zero_columns)] = 1.0
    return table / table.sum(axis=1, keepdims=True)


class TestColumnCount:
    @settings(max_examples=200, deadline=None)
    @given(
        prop=_row_stochastic(),
        m=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_clipped_row_count(self, prop, m, seed):
        cum = np.cumsum(prop, axis=1)
        rows = np.random.default_rng(seed).integers(0, prop.shape[0], size=m)
        new_rng, old_rng = _generators(seed)
        _assert_same(_rows_categorical(cum, rows, new_rng), reference_rows(cum[rows], old_rng))
        assert new_rng.random() == old_rng.random()

    def test_boundary_keys(self):
        # row 0 has a run of equal cumsums, row 1 is a point mass, row 2 is
        # all zeros (every entry is <= its key 0: the count is clipped)
        cum = np.array([[0.25, 0.5, 0.5, 1.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        uniforms = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53, 0.0, 1.0 - 2.0**-53, 0.5, 0.0]
        rows = np.array([0, 0, 0, 0, 0, 1, 1, 2, 2])
        new = _rows_categorical(cum, rows, StubGenerator(uniforms))
        _assert_same(new, reference_rows(cum[rows], StubGenerator(uniforms)))
        np.testing.assert_array_equal(new, [0, 1, 3, 3, 3, 2, 2, 3, 3])

    def test_first_filter_draw_is_the_plain_search(self):
        model = DiscreteHMM(
            [0.2, 0.0, 0.5, 0.3],
            np.full((4, 4), 0.25),
            [[1.0, 2.0, 0.5, 4.0]],
        )
        first = model.initial * model.likelihoods[0]
        new_rng, old_rng = _generators(7)
        trace = smc_init(model, 500, "prior", ResamplingPolicy(), new_rng)
        old = reference_categorical(first, 500, old_rng).astype(np.int64)
        _assert_same(trace.current.paths[:, 0], old)
