"""Tests for the weighted-sample type and its diagnostics."""

import numpy as np
import pytest

from smclimits import WeightedSample


class TestEstimate:
    def test_symmetric_average(self):
        ws = WeightedSample([1.0, 1.0])
        assert ws.estimate([0.0, 2.0]) == 1.0

    def test_constant_function(self):
        ws = WeightedSample([0.2, 1.7, 0.1])
        assert ws.estimate(np.full(3, 4.25)) == pytest.approx(4.25, rel=1e-15)

    def test_weighted_mean(self):
        ws = WeightedSample([1.0, 3.0])
        assert ws.estimate([0.0, 4.0]) == 3.0

    def test_rows_give_one_estimate_each(self):
        ws = WeightedSample([1.0, 3.0])
        np.testing.assert_array_equal(ws.estimate([[0.0, 4.0], [2.0, 2.0]]), [3.0, 2.0])

    def test_values_must_match_the_particles(self):
        ws = WeightedSample([1.0, 1.0])
        for bad in ([1.0], [1.0, 2.0, 3.0], [[[1.0, 2.0]]]):
            with pytest.raises(ValueError, match="f_values must have shape"):
                ws.estimate(bad)

    def test_non_finite_integrand(self):
        ws = WeightedSample([1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite integrand"):
            ws.estimate([0.0, float("inf")])

    def test_bounded_by_extremes(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 8))
            vals = rng.normal(size=m)
            ws = WeightedSample(rng.uniform(0.01, 1.0, size=m))
            est = ws.estimate(vals)
            assert vals.min() - 1e-12 <= est <= vals.max() + 1e-12

    def test_linearity(self, rng):
        m = 6
        fv = rng.normal(size=m)
        gv = rng.normal(size=m)
        ws = WeightedSample(rng.uniform(0.0, 1.0, size=m))
        lhs = ws.estimate(2.0 * fv - 3.5 * gv)
        rhs = 2.0 * ws.estimate(fv) - 3.5 * ws.estimate(gv)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestDiagnostics:
    def test_ess_equal_weights_exact(self):
        for m in (2, 3, 7, 100):
            assert WeightedSample(np.ones(m)).ess() == float(m)

    def test_ess_degenerate_exact(self):
        assert WeightedSample([0.0, 1.0, 0.0, 0.0]).ess() == 1.0

    def test_ess_value(self):
        assert WeightedSample([3.0, 1.0]).ess() == pytest.approx(1.6, rel=1e-14)

    @pytest.mark.parametrize(
        "weights, ess",
        [
            ([1e-170, 1e-170], 2.0),  # the squares underflow to 0
            ([5e-324, 1e-323], 1.8),  # subnormal weights, exact after scaling
            ([1e300, 1e300], 2.0),  # the squares overflow
        ],
    )
    def test_ess_outside_the_normal_range_of_squares(self, weights, ess):
        assert WeightedSample(weights).ess() == ess

    def test_cv2_equal_weights_zero(self):
        for m in (2, 5, 9):
            assert WeightedSample(np.ones(m)).cv2() == 0.0

    def test_cv2_degenerate(self):
        for m in (2, 3, 8):
            w = np.zeros(m)
            w[0] = 1.0
            assert WeightedSample(w).cv2() == float(m - 1)

    def test_cv2_value(self):
        assert WeightedSample([3.0, 1.0]).cv2() == pytest.approx(0.25, rel=1e-14)

    def test_ess_cv2_identity(self, rng):
        for _ in range(1000):
            m = int(rng.integers(2, 30))
            w = np.exp(rng.uniform(-8.0, 8.0, size=m))
            ws = WeightedSample(w)
            assert ws.ess() * (1.0 + ws.cv2()) == pytest.approx(m, rel=1e-10)

    def test_max_weight_fraction(self):
        assert WeightedSample(np.ones(4)).max_weight_fraction() == 0.25
        assert WeightedSample([1.0, 0.0, 0.0]).max_weight_fraction() == 1.0
        assert WeightedSample([1.0, 3.0]).max_weight_fraction() == 0.75

    def test_rescaling_invariance(self, rng):
        w = rng.uniform(0.01, 1.0, size=8)
        vals = rng.normal(size=8)
        ws = WeightedSample(w)
        base = (
            ws.estimate(vals),
            ws.ess(),
            ws.cv2(),
            ws.max_weight_fraction(),
        )
        for scale in (1e-6, 1.0, 1e6):
            scaled = WeightedSample(ws.weights * scale)
            got = (
                scaled.estimate(vals),
                scaled.ess(),
                scaled.cv2(),
                scaled.max_weight_fraction(),
            )
            for a, b in zip(base, got):
                assert a == pytest.approx(b, rel=1e-12)


class TestNormalize:
    def test_diagnostics_unchanged(self, rng):
        w = np.exp(rng.uniform(-4.0, 4.0, size=10))
        vals = rng.normal(size=10)
        ws = WeightedSample(w)
        nn = WeightedSample(ws.weights / ws.total)
        assert nn.total == pytest.approx(1.0, rel=1e-15)
        assert ws.estimate(vals) == pytest.approx(nn.estimate(vals), rel=1e-12)
        assert ws.ess() == pytest.approx(nn.ess(), rel=1e-12)
        assert ws.cv2() == pytest.approx(nn.cv2(), rel=1e-12, abs=1e-12)
        assert ws.max_weight_fraction() == pytest.approx(nn.max_weight_fraction(), rel=1e-12)


class TestValidation:
    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="degenerate weights"):
            WeightedSample([0.0, 0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedSample([1.0, -0.5])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            WeightedSample([1.0, float("nan")])

    def test_overflowing_total_rejected(self):
        # each weight is finite, their sum is not; no numpy overflow warning either
        with pytest.raises(ValueError, match="weights overflow"):
            WeightedSample([1e308, 1e308])
        assert WeightedSample([1e308, 7e307]).total == 1.7e308

    def test_not_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="weights must be 1-d"):
            WeightedSample([[1.0, 1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeightedSample([])

    def test_total_matches_sum(self, rng):
        w = rng.uniform(0.0, 1.0, size=1000)
        w[0] = 1.0
        ws = WeightedSample(w)
        assert ws.total == pytest.approx(float(np.sum(w)), rel=1e-14)

    def test_weights_read_only(self):
        ws = WeightedSample([1.0, 2.0])
        with pytest.raises(ValueError):
            ws.weights[0] = 5.0
