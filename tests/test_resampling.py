"""Tests for resampling schemes: enumeration oracles, moments, limit quantities."""

import math

import numpy as np
import pytest

from smclimits import (
    MULTINOMIAL,
    RESIDUAL,
    DiscreteDistribution,
    ResamplingPolicy,
    WeightedSample,
    conditional_mean,
    conditional_variance,
    equally_weighted,
    resample,
    residual_counts,
    residual_deterministic_limit,
    residual_limit_weight,
    residual_regularity_check,
)
from smclimits.enumeration import enumerated_moments


def _coord(p):
    return float(p)


class TestMultinomial:
    def test_single_particle_forced(self, rng):
        ws = WeightedSample([7.0], [2.0])
        out = resample(ws, MULTINOMIAL, 5, rng)
        assert out.particles == (7.0,) * 5
        assert np.array_equal(out.weights, np.ones(5))

    def test_zero_weight_excluded(self):
        ws = WeightedSample([1.0, 2.0], [1.0, 0.0])
        for seed in range(50):
            out = resample(ws, MULTINOMIAL, 8, np.random.default_rng(seed))
            assert set(out.particles) == {1.0}

    def test_enumerated_mean_matches_estimate(self):
        ws = WeightedSample([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
        mean, _ = enumerated_moments(MULTINOMIAL, ws, np.array([0.0, 1.0, 2.0]), 2)
        assert mean == pytest.approx(ws.estimate(_coord), abs=1e-12)

    def test_output_unit_weights(self, rng):
        ws = WeightedSample([0.0, 1.0], [0.4, 0.6])
        out = resample(ws, MULTINOMIAL, 7, rng)
        assert np.array_equal(out.weights, np.ones(7))


class TestResidualCounts:
    def test_exact_integer_targets(self):
        ws = WeightedSample([0, 1, 2], [0.5, 0.3, 0.2])
        floors, probs, m_bar = residual_counts(ws, 10)
        assert floors.tolist() == [5, 3, 2]
        assert m_bar == 10
        assert probs is None

    def test_residual_stage_probabilities(self):
        ws = WeightedSample([0, 1, 2], [0.55, 0.25, 0.2])
        floors, probs, m_bar = residual_counts(ws, 10)
        assert floors.tolist() == [5, 2, 2]
        assert m_bar == 9
        assert np.allclose(probs, [0.5, 0.5, 0.0], atol=1e-12)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-10)

    def test_equal_weights_fully_deterministic(self):
        ws = equally_weighted(range(4))
        floors, probs, m_bar = residual_counts(ws, 4)
        assert floors.tolist() == [1, 1, 1, 1]
        assert m_bar == 4
        assert probs is None


class TestResidualResample:
    def test_fully_deterministic_case(self, rng):
        ws = WeightedSample([0, 1, 2], [0.5, 0.3, 0.2])
        out = resample(ws, RESIDUAL, 10, rng)
        assert out.particles == (0,) * 5 + (1,) * 3 + (2,) * 2

    def test_enumerated_mean_matches_estimate(self):
        ws = WeightedSample([0.0, 1.0, 2.0], [0.45, 0.35, 0.2])
        mean, _ = enumerated_moments(RESIDUAL, ws, np.array([0.0, 1.0, 2.0]), 4)
        assert mean == pytest.approx(ws.estimate(_coord), abs=1e-12)

    def test_counts_dominate_floors(self):
        ws = WeightedSample([0, 1, 2], [0.47, 0.34, 0.19])
        floors, _, _ = residual_counts(ws, 5)
        for seed in range(1000):
            out = resample(ws, RESIDUAL, 5, np.random.default_rng(seed))
            counts = [out.particles.count(i) for i in range(3)]
            assert all(c >= f for c, f in zip(counts, floors))

    def test_output_size_and_weights(self, rng):
        ws = WeightedSample([0, 1], [0.3, 0.7])
        for m_out in (1, 2, 5, 9):
            out = resample(ws, RESIDUAL, m_out, rng)
            assert out.size == m_out
            assert np.array_equal(out.weights, np.ones(m_out))


class TestConditionalMoments:
    def test_mean_equals_estimate_both_schemes(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 6))
            ws = WeightedSample(
                [float(v) for v in rng.normal(size=m)],
                np.exp(rng.uniform(-2, 2, size=m)),
            )
            m_out = int(rng.integers(1, 7))
            est = ws.estimate(_coord)
            for scheme in (MULTINOMIAL, RESIDUAL):
                assert conditional_mean(scheme, ws, _coord, m_out) == pytest.approx(
                    est, abs=1e-12
                )

    def test_multinomial_variance_hand_value(self):
        ws = WeightedSample([0.0, 1.0], [1.0, 1.0])
        assert conditional_variance(MULTINOMIAL, ws, _coord, 2) == pytest.approx(
            0.125, abs=1e-15
        )

    def test_closed_forms_match_enumeration(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 5))
            vals = rng.normal(size=m)
            ws = WeightedSample(
                [float(v) for v in vals], rng.uniform(0.05, 1.0, size=m)
            )
            m_out = int(rng.integers(1, 5))
            for scheme in (MULTINOMIAL, RESIDUAL):
                mean_e, var_e = enumerated_moments(scheme, ws, vals, m_out)
                assert conditional_mean(scheme, ws, _coord, m_out) == pytest.approx(
                    mean_e, abs=1e-12
                )
                assert conditional_variance(scheme, ws, _coord, m_out) == pytest.approx(
                    var_e, abs=1e-12
                )

    def test_residual_never_beats_multinomial(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 7))
            ws = WeightedSample(
                [float(v) for v in rng.normal(size=m)],
                np.exp(rng.uniform(-3, 3, size=m)),
            )
            m_out = int(rng.integers(1, 7))
            gap = conditional_variance(RESIDUAL, ws, _coord, m_out) - conditional_variance(
                MULTINOMIAL, ws, _coord, m_out
            )
            assert gap <= 1e-12

    def test_monte_carlo_variance_matches_oracle(self):
        fixtures = [
            ([0.0, 1.0], [0.5, 0.5], 2),
            ([0.0, 1.0, 2.0], [0.55, 0.25, 0.2], 4),
            ([0.0, 2.0, 5.0], [0.2, 0.5, 0.3], 3),
            ([-1.0, 0.0, 1.0, 3.0], [0.4, 0.1, 0.3, 0.2], 5),
            ([0.0, 1.0], [0.9, 0.1], 6),
        ]
        reps = 10_000
        for scheme in (MULTINOMIAL, RESIDUAL):
            for i, (vals, w, m_out) in enumerate(fixtures):
                ws = WeightedSample(vals, w)
                oracle = conditional_variance(scheme, ws, _coord, m_out)
                rng = np.random.default_rng(np.random.SeedSequence([99, i]))
                draws = np.empty(reps)
                for r in range(reps):
                    out = resample(ws, scheme, m_out, rng)
                    draws[r] = np.mean([_coord(p) for p in out.particles])
                mc_var = float(np.var(draws, ddof=1))
                # the variance of a sample variance is roughly 2 var^2 / n
                se = oracle * math.sqrt(2.0 / reps) if oracle > 0 else 1e-12
                assert abs(mc_var - oracle) <= max(3 * se, 1e-12)


class TestAllocationStress:
    def test_floor_totals_never_exceed_output_size(self, rng):
        # near-integer targets, built from exact fractions plus tiny
        # perturbations, must never allocate more guaranteed copies than
        # there are output slots
        for _ in range(2000):
            m = int(rng.integers(2, 6))
            m_out = int(rng.integers(1, 9))
            base = rng.integers(0, m_out + 1, size=m).astype(float)
            if base.sum() == 0:
                base[0] = 1.0
            w = base / base.sum()
            w = w * (1.0 + rng.choice([-1e-16, 0.0, 1e-16], size=m))
            w[w < 0] = 0.0
            if not np.any(w > 0):
                continue
            ws = WeightedSample(range(m), w)
            floors, probs, m_bar = residual_counts(ws, m_out)
            assert m_bar <= m_out
            assert np.all(floors >= 0)
            if probs is not None:
                assert np.all(probs >= 0.0)
                assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-9)

    def test_residual_layout_keeps_deterministic_copies_first(self, rng):
        ws = WeightedSample([0, 1, 2], [0.47, 0.34, 0.19])
        floors, _, m_bar = residual_counts(ws, 7)
        expected_head = tuple(np.repeat(np.arange(3), floors))
        for seed in range(25):
            out = resample(ws, RESIDUAL, 7, np.random.default_rng(seed))
            assert out.particles[:m_bar] == expected_head


class TestLimitWeight:
    def test_infinite_ratio(self):
        assert residual_limit_weight(float("inf")) == 0.0

    def test_integer_point(self):
        assert residual_limit_weight(2.0) == 0.0
        assert residual_limit_weight(7.0) == 0.0

    def test_fractional_point(self):
        assert residual_limit_weight(2.5) == pytest.approx(0.2, abs=1e-15)

    def test_below_one(self):
        for x in (0.1, 0.5, 0.999):
            assert residual_limit_weight(x) == 1.0

    def test_range(self):
        for x in np.linspace(0.05, 12.0, 400):
            assert 0.0 <= residual_limit_weight(float(x)) <= 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            residual_limit_weight(0.0)
        with pytest.raises(ValueError, match="positive"):
            residual_limit_weight(-1.5)


class TestRegularityCheck:
    def test_integer_mass_atom_detected(self):
        # the two-point law whose heavier value sits exactly on an integer
        # expected copy count
        dist = DiscreteDistribution([(0.5, 1.0 / 3.0), (2.0, 2.0 / 3.0)])
        assert not residual_regularity_check(dist, 1.0, lambda v: v)

    def test_clean_two_point_law(self):
        dist = DiscreteDistribution([(0.3, 0.5), (0.7, 0.5)])
        assert residual_regularity_check(dist, 1.0, lambda v: v)

    def test_infinite_ratio_excluded(self):
        dist = DiscreteDistribution([(0.3, 0.5), (0.7, 0.5)])
        assert not residual_regularity_check(dist, float("inf"), lambda v: v)


class TestDeterministicLimit:
    def test_all_below_one_gives_zero(self):
        dist = DiscreteDistribution([(0.3, 0.5), (0.7, 0.5)])
        assert residual_deterministic_limit(dist, 0.5, lambda v: v, lambda v: v) == 0.0

    def test_constant_copy_count(self):
        # a constant weight function makes every expected copy count equal
        # to the output ratio
        dist = DiscreteDistribution([(0.0, 0.4), (1.0, 0.6)])
        out = residual_deterministic_limit(dist, 2.5, lambda v: 1.0, lambda v: 1.0)
        assert out == pytest.approx(0.8, abs=1e-15)

    def test_violated_regularity_raises(self):
        dist = DiscreteDistribution([(0.5, 1.0 / 3.0), (2.0, 2.0 / 3.0)])
        with pytest.raises(ValueError, match="atomic integer mass"):
            residual_deterministic_limit(dist, 1.0, lambda v: v, lambda v: v)

    def test_monte_carlo_cross_check(self):
        dist = DiscreteDistribution([(0.8, 0.2), (0.9, 0.3), (1.5, 0.5)])
        phi = lambda v: float(v)
        f = lambda v: float(v)
        ell = 1.0
        predicted = residual_deterministic_limit(dist, ell, phi, f)
        values = np.array(dist.values)
        probs = dist.probabilities
        tilt = probs / values
        tilt /= tilt.sum()
        m = 100_000
        rng = np.random.default_rng(np.random.SeedSequence(77))
        pts = values[rng.choice(values.size, size=m, p=tilt)]
        total = pts.sum()
        m_out = int(round(ell * m))
        empirical = float(np.dot(np.floor(m_out * pts / total), pts)) / m_out
        assert empirical == pytest.approx(predicted, rel=0.01)


class TestPolicy:
    def test_trigger_logic(self):
        assert ResamplingPolicy(trigger="always").should_fire(0.0)
        assert not ResamplingPolicy(trigger="never").should_fire(1e9)
        cv = ResamplingPolicy(trigger="cv", kappa2=1.0)
        assert cv.should_fire(1.0)  # non-strict comparison
        assert cv.should_fire(1.5)
        assert not cv.should_fire(0.99)

    def test_output_size(self):
        assert ResamplingPolicy(ratio=0.5).output_size(10) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ResamplingPolicy(scheme="systematic")
        with pytest.raises(ValueError):
            ResamplingPolicy(trigger="sometimes")
        with pytest.raises(ValueError):
            ResamplingPolicy(trigger="cv", kappa2=-1.0)
