"""Tests for resampling schemes: enumeration oracles, moments, limit quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smclimits import (
    MULTINOMIAL,
    RESIDUAL,
    DiscreteDistribution,
    ResamplingPolicy,
    WeightedSample,
    conditional_mean,
    conditional_variance,
    residual_deterministic_limit,
    residual_limit_weight,
    residual_regularity_check,
)
from smclimits import verify
from smclimits.enumeration import enumerated_moments
from smclimits.resampling import _residual_alloc, categorical_indices, resample_indices


def _alloc(weights, m_out):
    weights = np.asarray(weights, dtype=float)
    return _residual_alloc(weights, float(np.sum(weights)), m_out)


# zeros must never be drawn, ties and exact fractions make integer targets
_weights = st.lists(
    st.one_of(
        st.just(0.0),
        st.sampled_from([0.25, 0.5, 1.0, 3.0]),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=6,
).filter(lambda w: any(x > 0.0 for x in w))


class TestIndexDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        weights=_weights,
        m_out=st.integers(1, 12),
        scheme=st.sampled_from([MULTINOMIAL, RESIDUAL]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_length_range_support_and_guaranteed_copies(self, weights, m_out, scheme, seed):
        w = np.array(weights)
        idx = resample_indices(w, m_out, scheme, np.random.default_rng(seed))
        assert idx.shape == (m_out,)
        assert np.all((idx >= 0) & (idx < w.size))
        assert np.all(w[idx] > 0.0)
        if scheme == RESIDUAL:
            floors, _, m_bar = _alloc(w, m_out)
            np.testing.assert_array_equal(idx[:m_bar], np.repeat(np.arange(w.size), floors))
            assert np.all(np.bincount(idx, minlength=w.size) >= floors)


class TestMultinomial:
    def test_single_particle_forced(self, rng):
        idx = resample_indices(np.array([2.0]), 5, MULTINOMIAL, rng)
        assert idx.tolist() == [0] * 5

    def test_zero_weight_excluded(self):
        w = np.array([1.0, 0.0])
        for seed in range(50):
            idx = resample_indices(w, 8, MULTINOMIAL, np.random.default_rng(seed))
            assert set(idx.tolist()) == {0}

    def test_enumerated_mean_matches_estimate(self):
        ws = WeightedSample([0.5, 0.3, 0.2])
        vals = np.array([0.0, 1.0, 2.0])
        mean, _ = enumerated_moments(MULTINOMIAL, ws, vals, 2)
        assert mean == pytest.approx(ws.estimate(vals), abs=1e-12)


class TestResidualCounts:
    def test_exact_integer_targets(self):
        floors, probs, m_bar = _alloc([0.5, 0.3, 0.2], 10)
        assert floors.tolist() == [5, 3, 2]
        assert m_bar == 10
        assert probs is None

    def test_residual_stage_probabilities(self):
        floors, probs, m_bar = _alloc([0.55, 0.25, 0.2], 10)
        assert floors.tolist() == [5, 2, 2]
        assert m_bar == 9
        assert np.allclose(probs, [0.5, 0.5, 0.0], atol=1e-12)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-10)

    def test_equal_weights_fully_deterministic(self):
        floors, probs, m_bar = _alloc(np.ones(4), 4)
        assert floors.tolist() == [1, 1, 1, 1]
        assert m_bar == 4
        assert probs is None


class TestResidualResample:
    def test_fully_deterministic_case(self, rng):
        idx = resample_indices(np.array([0.5, 0.3, 0.2]), 10, RESIDUAL, rng)
        assert idx.tolist() == [0] * 5 + [1] * 3 + [2] * 2

    def test_enumerated_mean_matches_estimate(self):
        ws = WeightedSample([0.45, 0.35, 0.2])
        vals = np.array([0.0, 1.0, 2.0])
        mean, _ = enumerated_moments(RESIDUAL, ws, vals, 4)
        assert mean == pytest.approx(ws.estimate(vals), abs=1e-12)

    def test_counts_dominate_floors(self):
        w = np.array([0.47, 0.34, 0.19])
        floors, _, _ = _alloc(w, 5)
        for seed in range(1000):
            idx = resample_indices(w, 5, RESIDUAL, np.random.default_rng(seed))
            counts = np.bincount(idx, minlength=3).tolist()
            assert all(c >= f for c, f in zip(counts, floors))

    def test_output_size_and_weights(self, rng):
        for m_out in (1, 2, 5, 9):
            idx = resample_indices(np.array([0.3, 0.7]), m_out, RESIDUAL, rng)
            assert idx.size == m_out


class TestConditionalMoments:
    def test_mean_equals_estimate_both_schemes(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 6))
            vals = rng.normal(size=m)
            ws = WeightedSample(np.exp(rng.uniform(-2, 2, size=m)))
            m_out = int(rng.integers(1, 7))
            est = ws.estimate(vals)
            for scheme in (MULTINOMIAL, RESIDUAL):
                assert conditional_mean(scheme, ws, vals, m_out) == pytest.approx(
                    est, abs=1e-12
                )

    def test_multinomial_variance_hand_value(self):
        ws = WeightedSample([1.0, 1.0])
        assert conditional_variance(MULTINOMIAL, ws, [0.0, 1.0], 2) == pytest.approx(
            0.125, abs=1e-15
        )

    def test_closed_forms_match_enumeration(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 5))
            vals = rng.normal(size=m)
            ws = WeightedSample(rng.uniform(0.05, 1.0, size=m))
            m_out = int(rng.integers(1, 5))
            for scheme in (MULTINOMIAL, RESIDUAL):
                mean_e, var_e = enumerated_moments(scheme, ws, vals, m_out)
                assert conditional_mean(scheme, ws, vals, m_out) == pytest.approx(
                    mean_e, abs=1e-12
                )
                assert conditional_variance(scheme, ws, vals, m_out) == pytest.approx(
                    var_e, abs=1e-12
                )

    def test_residual_never_beats_multinomial(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 7))
            vals = rng.normal(size=m)
            ws = WeightedSample(np.exp(rng.uniform(-3, 3, size=m)))
            m_out = int(rng.integers(1, 7))
            gap = conditional_variance(RESIDUAL, ws, vals, m_out) - conditional_variance(
                MULTINOMIAL, ws, vals, m_out
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
                ws = WeightedSample(w)
                oracle = conditional_variance(scheme, ws, vals, m_out)
                rng = np.random.default_rng(np.random.SeedSequence([99, i]))
                points = np.array(vals)
                draws = np.empty(reps)
                for r in range(reps):
                    draws[r] = np.mean(points[resample_indices(ws.weights, m_out, scheme, rng)])
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
            floors, probs, m_bar = _alloc(w, m_out)
            assert m_bar <= m_out
            assert np.all(floors >= 0)
            if probs is not None:
                assert np.all(probs >= 0.0)
                assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-9)

    def test_floors_back_off_to_the_output_size(self):
        # a total below the weights' sum gives targets [2, 2] for 2 slots:
        # the floors must come down to fit, each still at most its target
        weights = np.array([1.0, 1.0])
        floors, probs, m_bar = _residual_alloc(weights, 1.0, 2)
        assert floors.tolist() == [1, 1]
        assert m_bar == int(floors.sum()) == 2
        assert np.all(floors <= weights * 2 / 1.0)
        assert probs is None

    def test_residual_layout_keeps_deterministic_copies_first(self, rng):
        w = np.array([0.47, 0.34, 0.19])
        floors, _, m_bar = _alloc(w, 7)
        expected_head = tuple(np.repeat(np.arange(3), floors))
        for seed in range(25):
            idx = resample_indices(w, 7, RESIDUAL, np.random.default_rng(seed))
            assert tuple(idx[:m_bar]) == expected_head


def _within_binomial_band(hits: int, n: int, p: float) -> bool:
    return abs(hits / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


class TestTinyWeightTotals:
    """Totals below the smallest normal float draw as their normalized weights do."""

    def test_residual_moments_and_draws_do_not_overflow(self):
        sample = WeightedSample([1e-310, 2e-310])
        assert conditional_mean(RESIDUAL, sample, [0.0, 1.0], 3) == pytest.approx(2.0 / 3.0)
        assert conditional_variance(RESIDUAL, sample, [0.0, 1.0], 3) == pytest.approx(0.0)
        assert enumerated_moments(RESIDUAL, sample, [0.0, 1.0], 3)[0] == pytest.approx(2.0 / 3.0)
        idx = resample_indices(np.array([1e-310, 2e-310]), 3, RESIDUAL, np.random.default_rng(1))
        assert sorted(idx.tolist()) == [0, 1, 1]
        # a normal total, 3 * 2^-1020, whose m_out / total overflows
        weights = np.array([math.ldexp(1.0, -1020), math.ldexp(1.0, -1019)])
        counts = np.bincount(
            resample_indices(weights, 300, RESIDUAL, np.random.default_rng(2)), minlength=2
        )
        assert counts.tolist() == [100, 200]

    def test_multinomial_frequency_is_the_normalized_weight(self):
        n = 200_000
        idx = categorical_indices(np.array([5e-324, 1e-323]), n, np.random.default_rng(3))
        assert _within_binomial_band(int(np.sum(idx == 0)), n, 1.0 / 3.0)

    def test_residual_frequency_is_the_normalized_weight(self):
        # one output slot: no guaranteed copy, one residual draw
        rng = np.random.default_rng(4)
        weights = np.array([5e-324, 1e-323])
        n = 20_000
        hits = sum(int(resample_indices(weights, 1, RESIDUAL, rng)[0] == 0) for _ in range(n))
        assert _within_binomial_band(hits, n, 1.0 / 3.0)


class TestUnbiasednessSuiteFailures:
    def test_each_failing_function_is_recorded(self, monkeypatch):
        # a closed form off by 1e-9 for one function and NaN for another, at
        # one output size and scheme only
        closed_form = verify.conditional_variance

        def off(scheme, sample, f_values, m_out):
            var = closed_form(scheme, sample, f_values, m_out)
            if scheme == RESIDUAL and m_out == 2:
                var = var + np.array([1e-9] + [0.0] * (var.size - 2) + [math.nan])
            return var

        passing = verify.unbiasedness_suite()
        monkeypatch.setattr(verify, "conditional_variance", off)
        report = verify.unbiasedness_suite()
        assert passing["passed"] and not report["passed"]
        assert report["n_checks"] == passing["n_checks"]
        # the first weight vector is (1.0,): an indicator, then the coordinate
        first, second = report["failures"][:2]
        assert first == {"weights": [1.0], "m_out": 2, "scheme": RESIDUAL, "function": 0,
                         "errors": [0.0, 0.0, 1e-9]}
        assert (second["function"], second["errors"][:2]) == (1, [0.0, 0.0])
        assert math.isnan(second["errors"][2])
        assert report["max_abs_error"] >= 1e-9


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


class TestDiscreteDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteDistribution([(0.5, 0.4), (2.0, 0.4)])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteDistribution([(0.5, -0.1), (2.0, 1.1)])

    def test_expect(self):
        dist = DiscreteDistribution([(0.5, 0.25), (2.0, 0.75)])
        assert dist.expect(dist.values) == pytest.approx(1.625, rel=1e-15)


class TestRegularityCheck:
    def test_integer_mass_atom_detected(self):
        # the two-point law whose heavier value sits exactly on an integer
        # expected copy count
        dist = DiscreteDistribution([(0.5, 1.0 / 3.0), (2.0, 2.0 / 3.0)])
        assert not residual_regularity_check(dist, 1.0, dist.values)

    def test_clean_two_point_law(self):
        dist = DiscreteDistribution([(0.3, 0.5), (0.7, 0.5)])
        assert residual_regularity_check(dist, 1.0, dist.values)

    def test_infinite_ratio_excluded(self):
        dist = DiscreteDistribution([(0.3, 0.5), (0.7, 0.5)])
        assert not residual_regularity_check(dist, float("inf"), dist.values)


class TestDeterministicLimit:
    def test_all_below_one_gives_zero(self):
        dist = DiscreteDistribution([(0.3, 0.5), (0.7, 0.5)])
        assert residual_deterministic_limit(dist, 0.5, dist.values, dist.values) == 0.0

    def test_constant_copy_count(self):
        # a constant weight function makes every expected copy count equal
        # to the output ratio
        dist = DiscreteDistribution([(0.0, 0.4), (1.0, 0.6)])
        out = residual_deterministic_limit(dist, 2.5, [1.0, 1.0], [1.0, 1.0])
        assert out == pytest.approx(0.8, abs=1e-15)

    def test_violated_regularity_raises(self):
        dist = DiscreteDistribution([(0.5, 1.0 / 3.0), (2.0, 2.0 / 3.0)])
        with pytest.raises(ValueError, match="atomic integer mass"):
            residual_deterministic_limit(dist, 1.0, dist.values, dist.values)

    def test_monte_carlo_cross_check(self):
        dist = DiscreteDistribution([(0.8, 0.2), (0.9, 0.3), (1.5, 0.5)])
        phi = f = np.array(dist.values)
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

    @pytest.mark.parametrize(
        "trigger, kappa2, can_fire",
        [
            ("always", 0.0, True),
            ("always", math.inf, True),
            ("cv", 0.0, True),
            ("cv", 1e300, True),
            ("cv", math.inf, False),  # no finite cv2 reaches the threshold
            ("never", 0.0, False),
        ],
    )
    def test_can_fire(self, trigger, kappa2, can_fire):
        assert ResamplingPolicy(trigger=trigger, kappa2=kappa2).can_fire is can_fire

    def test_output_size(self):
        assert ResamplingPolicy(ratio=0.5).output_size(10) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ResamplingPolicy(scheme="systematic")
        with pytest.raises(ValueError):
            ResamplingPolicy(trigger="sometimes")
        with pytest.raises(ValueError):
            ResamplingPolicy(trigger="cv", kappa2=-1.0)
