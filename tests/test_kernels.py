"""Tests for kernel pairs: reweighting, enumerable supports, target identities."""

import numpy as np
import pytest

from smclimits import (
    DiscreteDistribution,
    MultiProposal,
    MutationKernelPair,
    WeightedSample,
    equally_weighted,
    mutate,
    reweighting_pair,
    step_kernel,
)


class TestReweightingPair:
    def test_identity_ratio_leaves_sample_unchanged(self, rng):
        pair = reweighting_pair(lambda x: 1.0)
        ws = WeightedSample([3, 1, 4], [0.2, 0.5, 0.3])
        out = mutate(ws, pair, 1, rng)
        assert out.particles == ws.particles
        assert np.array_equal(out.weights, ws.weights)

    def test_dirac_proposal(self, rng):
        pair = reweighting_pair(lambda x: 2.0)
        for x in (0, (1, 2), "point"):
            assert pair.propose(rng, x) == x

    def test_flag(self):
        assert reweighting_pair(lambda x: 1.0).is_reweighting
        other = MutationKernelPair(propose=lambda r, x: x, weight=lambda x, y: 1.0)
        assert not other.is_reweighting

    def test_negative_density_rejected(self, rng):
        pair = reweighting_pair(lambda x: -1.0)
        with pytest.raises(ValueError, match="invalid density"):
            mutate(equally_weighted([0]), pair, 1, rng)

    def test_reweighting_retargets_uniform_to_tilted(self):
        # points drawn uniformly on {0, 1}; the ratio (2/3, 4/3) retargets
        # to probabilities (1/3, 2/3), so the mean tends to 2/3
        ratio = {0: 2.0 / 3.0, 1: 4.0 / 3.0}
        pair = reweighting_pair(lambda x: ratio[x])
        rng = np.random.default_rng(np.random.SeedSequence(2024))
        m = 200_000
        points = rng.integers(0, 2, size=m)
        out = mutate(equally_weighted(points.tolist()), pair, 1, rng)
        est = out.estimate(float)
        # sd of the estimate is about 0.5/sqrt(m)
        assert est == pytest.approx(2.0 / 3.0, abs=4 * 0.5 / np.sqrt(m))


class TestDiscreteDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteDistribution([(0.5, 0.4), (2.0, 0.4)])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteDistribution([(0.5, -0.1), (2.0, 1.1)])

    def test_expect_and_sampling(self):
        dist = DiscreteDistribution([(0.5, 0.25), (2.0, 0.75)])
        assert dist.expect(lambda v: v) == pytest.approx(1.625, rel=1e-15)
        rng = np.random.default_rng(np.random.SeedSequence(5))
        draws = np.array(dist.sample(rng, 50_000))
        assert np.mean(draws == 2.0) == pytest.approx(0.75, abs=0.01)


def _independent_target_expectation(model, k, kind, x, f):
    """The target kernel applied to f, written with bare loops.

    The one-step target always extends the path through the transition and
    tilts by the likelihood; the path move composes that with its own
    transition matrix on the last coordinate.
    """
    q = model.transition
    g = model.likelihoods[k - 1]
    n = model.n_states
    if kind in ("prior", "optimal"):
        return sum(q[x[-1], j] * g[j] * f(x + (j,)) for j in range(n))
    mats = step_kernel(model, k, "resample_move").moves
    total = 0.0
    for m in range(n):
        for j in range(n):
            total += mats[x[-2], x[-1], m] * q[m, j] * g[j] * f(x[:-1] + (m, j))
    return total


class TestEnumerableSupports:
    @pytest.mark.parametrize("kind", ["prior", "optimal", "resample_move"])
    def test_support_probabilities_sum_to_one(self, bench_model, kind):
        for k in (3, 4):
            pair = step_kernel(bench_model, k, kind).pair()
            for x in [(0, 1), (1, 0), (1, 1)]:
                x = x + (0,) * (k - 3)
                total = sum(p for _, p in pair.support(x))
                assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["prior", "optimal", "resample_move"])
    def test_unbiasedness_identity_against_independent_target(self, bench_model, kind):
        k = 3
        pair = step_kernel(bench_model, k, kind).pair()
        functions = [
            lambda y: 1.0,
            lambda y: float(y[-1] == 0),
            lambda y: float(sum(y)),
        ]
        for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            for f in functions:
                via_pair = pair.target_expectation(x, f)
                direct = _independent_target_expectation(bench_model, k, kind, x, f)
                assert via_pair == pytest.approx(direct, abs=1e-12)


class TestMultiProposal:
    def test_needs_a_kernel(self):
        with pytest.raises(ValueError):
            MultiProposal([], weight=lambda x, y: 1.0)

    def test_average_support(self):
        left = MutationKernelPair(
            propose=lambda r, x: 0, weight=lambda x, y: 1.0, support=lambda x: [(0, 1.0)]
        )
        right = MutationKernelPair(
            propose=lambda r, x: 1, weight=lambda x, y: 1.0, support=lambda x: [(1, 1.0)]
        )
        multi = MultiProposal([left, right], weight=lambda x, y: 1.0)
        support = dict(multi.average_support(0))
        assert support == {0: 0.5, 1: 0.5}
