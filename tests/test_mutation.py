"""Tests for the mutation step, ``StepKernel.mutate``, with joint-outcome enumeration oracles."""

import itertools

import numpy as np
import pytest

from smclimits import DiscreteHMM, step_kernel
from smclimits.state_space import as_rng

# a two-state model whose weights vary with the offspring at every step
MODEL = DiscreteHMM(
    [0.35, 0.65], [[0.7, 0.3], [0.4, 0.6]], [[1.0, 1.0], [2.0, 0.5], [0.8, 1.6]]
)


class TestMutateBasics:
    def test_output_size(self):
        # one offspring per parent; the path move also carries the moved coordinate
        parents = np.array([[0, 1], [1, 1], [1, 0], [0, 0], [1, 1]])
        for kind in ("prior", "optimal", "resample_move"):
            carried, log_w = step_kernel(MODEL, 3, kind).mutate(parents, as_rng(0))
            assert carried.shape == (5, 2 if kind == "resample_move" else 1)
            assert log_w.shape == (5,)

    def test_deterministic_given_seed(self):
        kernel = step_kernel(MODEL, 3, "resample_move")
        parents = np.array([[0, 1], [1, 0], [0, 0]] * 4)
        a = kernel.mutate(parents, as_rng(3))
        b = kernel.mutate(parents, as_rng(3))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_weight_positivity_preserved(self):
        parents = np.array([[0, 1], [1, 0]] * 50)
        for kind in ("prior", "optimal", "resample_move"):
            _, log_w = step_kernel(MODEL, 3, kind).mutate(parents, as_rng(1))
            assert np.all(np.isfinite(log_w))


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
            h = np.broadcast_to([f(j) for j in range(2)], (2, 2, 2))  # f of the new coordinate
            target = kernel.apply_rw(h, 1)
            for i, x in enumerate(parents):
                assert totals[i] == pytest.approx(weights[i] * target[x], abs=1e-12)


class TestMutationConsistency:
    def test_estimates_converge_with_population_size(self):
        # mutating an i.i.d. equally weighted sample from nu targets
        # nu L / nu L(1); the weighted estimate's error shrinks at the Monte
        # Carlo rate
        kernel = step_kernel(MODEL, 2, "prior")
        nu = np.array([0.35, 0.65])
        values = np.array([0.0, 1.0])
        truth = float(nu @ kernel.apply_rw(np.tile(values, (2, 1)), 1)) / float(
            nu @ kernel.apply_rw(np.ones((2, 2)), 1)
        )
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
