"""Tests for the mutation step, ``StepKernel.mutate``, with joint-outcome enumeration oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smclimits import DiscreteHMM, step_kernel

# a two-state model whose weights vary with the offspring at every step
MODEL = DiscreteHMM(
    [0.35, 0.65], [[0.7, 0.3], [0.4, 0.6]], [[1.0, 1.0], [2.0, 0.5], [0.8, 1.6]]
)


class TestMutateBasics:
    def test_output_size(self):
        # one offspring per parent; the path move also carries the moved coordinate
        parents = np.array([[0, 1], [1, 1], [1, 0], [0, 0], [1, 1]])
        for kind in ("prior", "optimal", "resample_move"):
            carried, log_w = step_kernel(MODEL, 3, kind).mutate(parents, np.random.default_rng(0))
            assert carried.shape == (5, 2 if kind == "resample_move" else 1)
            assert log_w.shape == (5,)

    def test_deterministic_given_seed(self):
        kernel = step_kernel(MODEL, 3, "resample_move")
        parents = np.array([[0, 1], [1, 0], [0, 0]] * 4)
        a = kernel.mutate(parents, np.random.default_rng(3))
        b = kernel.mutate(parents, np.random.default_rng(3))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_weight_positivity_preserved(self):
        parents = np.array([[0, 1], [1, 0]] * 50)
        for kind in ("prior", "optimal", "resample_move"):
            _, log_w = step_kernel(MODEL, 3, kind).mutate(parents, np.random.default_rng(1))
            assert np.all(np.isfinite(log_w))

    @pytest.mark.parametrize("kind", ["prior", "optimal", "resample_move"])
    def test_kernel_tables(self, kind):
        # the sampler's tables: cumulative rows of prop and log W, read-only;
        # the prior and the path move share the model's, built once
        for k in (2, 3):
            kernel = step_kernel(MODEL, k, kind)
            assert np.array_equal(kernel.cum, np.cumsum(kernel.prop, axis=1))
            assert _bits(kernel.log_w) == _bits(np.log(kernel.w))
            if kind != "optimal":
                assert kernel.cum is MODEL.cumulative_transition
                assert kernel.log_w.base is MODEL.log_likelihoods
        for table in (MODEL.cumulative_transition, MODEL.log_likelihoods):
            assert not table.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(
        table=st.lists(st.floats(5e-324, 1e300), min_size=1, max_size=12).map(np.array),
        picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=64),
    )
    def test_log_of_a_gather_is_a_gather_of_the_log(self, table, picks):
        # mutate gathers log W from a table taken once; this is the bit
        # identity that makes it equal to the log of the gathered W
        idx = np.array(picks) % table.size
        assert _bits(np.log(table)[idx]) == _bits(np.log(table[idx]))
        column = table[:, None]
        assert _bits(np.log(column).ravel()[idx]) == _bits(np.log(column.ravel()[idx]))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _joint_conditional_expectations(kernel, parents, weights, f):
    """Per-parent E[offspring weight * f(new coordinate)], enumerating every joint outcome.

    Each parent draws its (moved coordinate, new coordinate) from the
    kernel's tables; the joint outcome space is the product over parents.
    """
    n = kernel.prop.shape[0]
    w_table = np.broadcast_to(kernel.w, kernel.prop.shape)  # W[moved coordinate, new]

    def outcomes(x):
        move = kernel.moves[x[-2], x[-1]] if kernel.has_move else np.eye(n)[x[-1]]
        return [(c, j, move[c] * kernel.prop[c, j]) for c in range(n) for j in range(n)]

    totals = np.zeros(len(parents))
    for combo in itertools.product(*[outcomes(x) for x in parents]):
        prob = np.prod([p for _, _, p in combo])
        for i, (c, j, _) in enumerate(combo):
            totals[i] += prob * weights[i] * w_table[c, j] * f(j)
    return totals


class TestMutationUnbiasedness:
    @pytest.mark.parametrize(
        "f", [lambda y: 1.0, lambda y: float(y == 0), lambda y: float(y == 1), lambda y: float(y)]
    )
    def test_joint_enumeration_matches_target(self, f):
        # the conditional expectation of each offspring's weighted f, given
        # the parents, is its parent's weight times R(x, W f) = L(x, f)
        parents = [(0, 1), (1, 0)]
        weights = [0.3, 0.7]
        for kind in ("prior", "optimal", "resample_move"):
            kernel = step_kernel(MODEL, 3, kind)
            totals = _joint_conditional_expectations(kernel, parents, weights, f)
            q, d = kernel.factors(1)
            h = np.tile([f(j) for j in range(2)], d.shape[1] // 2)  # f of the new coordinate
            dims = 1 if q.shape[0] == 2 else 2  # x_2, or (x_1, x_2) behind the path move
            target = (q @ d @ h).reshape((2,) * dims)
            for i, x in enumerate(parents):
                assert totals[i] == pytest.approx(weights[i] * target[x[-dims:]], abs=1e-12)


class TestMutationConsistency:
    def test_estimates_converge_with_population_size(self):
        # mutating an i.i.d. equally weighted sample from nu targets
        # nu L / nu L(1); the weighted estimate's error shrinks at the Monte
        # Carlo rate
        kernel = step_kernel(MODEL, 2, "prior")
        nu = np.array([0.35, 0.65])
        values = np.array([0.0, 1.0])
        q, d = kernel.factors(1)
        truth = float(nu @ q @ d @ values) / float(np.sum(nu @ q @ d))
        rmse = {}
        for m in (500, 8000):
            errs = []
            for r in range(40):
                rng = np.random.default_rng(np.random.SeedSequence([15, m, r]))
                parents = rng.choice(2, size=m, p=nu)[:, None]
                carried, log_w = kernel.mutate(parents, rng)
                w = np.exp(log_w)
                errs.append(float(np.sum(w * values[carried[:, -1]])) / float(np.sum(w)) - truth)
            rmse[m] = float(np.sqrt(np.mean(np.square(errs))))
        assert rmse[8000] < rmse[500] / 2.0
