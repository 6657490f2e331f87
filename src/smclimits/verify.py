"""Self-contained verification suites for the resampling theory.

Each suite pits an implementation route against an independent one and
reports the largest discrepancy:

* unbiasedness: full outcome enumeration of both schemes against the
  input weighted estimate and the closed-form conditional moments;
* variance ordering: the residual scheme's exact conditional variance
  never exceeds the multinomial one;
* limit weight: the closed-form residual conditional variance of a large
  concrete sample against the limiting residual-mass formula.

The command-line front end runs these and turns the flags into exit
codes; the acceptance tests call them directly.
"""

from __future__ import annotations

import math

import numpy as np

from .enumeration import enumerated_moments
from .resampling import (
    DiscreteDistribution,
    MULTINOMIAL,
    RESIDUAL,
    conditional_mean,
    conditional_variance,
    point_values,
    residual_limit_weight,
    residual_regularity_check,
)
from .weighted_sample import WeightedSample

# Weight vectors chosen to stress the allocation logic: degenerate mass,
# exact integer targets, extreme dynamic range, ties.
ADVERSARIAL_WEIGHTS: tuple[tuple[float, ...], ...] = (
    (1.0,),
    (1e-12,),
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0, 1e-15),
    (1.0, 1.0),
    (0.75, 0.25),
    (1.0, 0.0, 0.0),
    (0.5, 0.5, 0.0),
    (1e3, 1e-3, 1.0),
    (0.25, 0.25, 0.5),
    (2.0, 1.0, 1.0),
    (1.0, 1.0, 1.0, 1.0),
    (0.1, 0.2, 0.3, 0.4),
    (1e-30, 1.0, 1.0, 1.0),
    (1.0, 2.0, 3.0, 4.0),
    (0.7, 0.1, 0.1, 0.1),
    (1e6, 1.0, 1.0, 1.0),
    (0.999999, 1e-6, 0.0, 0.0),
    (0.5, 0.25, 0.125, 0.125),
)

# Particle values giving a nonconstant "coordinate" test function.
_PARTICLE_VALUES = (0.3, -1.2, 2.0, 0.7)

# The contractual largest discrepancy of the unbiasedness suite.
UNBIASEDNESS_TOLERANCE = 1e-12


def _random_weight_vectors(seed: int, n_cases: int, max_m: int) -> list[np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for i in range(n_cases):
        m = 2 + i % (max_m - 1)
        if i % 3 == 2:
            w = np.exp(rng.uniform(-6.0, 6.0, size=m))
        else:
            w = rng.uniform(0.0, 1.0, size=m)
        if not np.any(w > 0.0):
            w[0] = 1.0
        out.append(w)
    return out


def _test_functions(m: int) -> np.ndarray:
    """One row of f values per test function: each indicator, then the coordinate."""
    return np.vstack([np.eye(m), _PARTICLE_VALUES[:m]])


def unbiasedness_suite(seed: int = 0) -> dict:
    """Enumerate both schemes on small systems; compare with the estimate.

    For every weight vector (the adversarial ones and 200 random ones, all
    of at most 4 points), output size 1 to 4 and test function, the exact
    enumerated conditional mean must match the input weighted estimate and
    the closed-form mean, and the enumerated conditional variance must
    match the closed form, all within :data:`UNBIASEDNESS_TOLERANCE`.
    """
    vectors = [np.array(w) for w in ADVERSARIAL_WEIGHTS]
    vectors += _random_weight_vectors(seed, n_cases=200, max_m=4)
    worst = 0.0
    n_checks = 0
    failures = []
    for w in vectors:
        m = w.size
        sample = WeightedSample(w)
        f_tables = _test_functions(m)
        estimates = sample.estimate(f_tables)
        for m_out in range(1, 5):
            for scheme in (MULTINOMIAL, RESIDUAL):
                # one call per weight vector, output size and scheme serves every function
                means_enum, vars_enum = enumerated_moments(scheme, sample, f_tables, m_out)
                # one row per discrepancy, one column per function
                errs = np.abs([
                    means_enum - estimates,
                    conditional_mean(scheme, sample, f_tables, m_out) - estimates,
                    vars_enum - conditional_variance(scheme, sample, f_tables, m_out),
                ])
                n_checks += errs.shape[1]
                largest = float(errs.max())
                if largest <= UNBIASEDNESS_TOLERANCE:
                    worst = max(worst, largest)
                    continue
                # a NaN discrepancy fails too; the worst is taken over the others
                worst = float(errs.max(initial=worst, where=~np.isnan(errs)))
                for fi in np.flatnonzero(~(errs.max(axis=0) <= UNBIASEDNESS_TOLERANCE)).tolist():
                    failures.append(
                        {"weights": w.tolist(), "m_out": m_out, "scheme": scheme,
                         "function": fi, "errors": errs[:, fi].tolist()}
                    )
    return {
        "suite": "unbiasedness",
        "passed": not failures,
        "n_checks": n_checks,
        "max_abs_error": worst,
        "tolerance": UNBIASEDNESS_TOLERANCE,
        "failures": failures[:10],
    }


def variance_ordering_suite(seed: int = 1) -> dict:
    """Residual conditional variance <= multinomial, closed forms, on 100
    random systems of 2 to 6 points and output sizes 1 to 6."""
    n_cases, slack = 100, 1e-12
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst_gap = -math.inf
    failures = 0
    for _ in range(n_cases):
        m = int(rng.integers(2, 7))
        w = np.exp(rng.uniform(-3.0, 3.0, size=m))
        values = rng.normal(size=m)
        sample = WeightedSample(w)
        m_out = int(rng.integers(1, 7))
        gap = conditional_variance(RESIDUAL, sample, values, m_out) - conditional_variance(
            MULTINOMIAL, sample, values, m_out
        )
        worst_gap = max(worst_gap, gap)
        if gap > slack:
            failures += 1
    return {
        "suite": "variance_ordering",
        "passed": failures == 0,
        "n_checks": n_cases,
        "worst_gap": worst_gap,
        "slack": slack,
    }


def limit_weight_suite(seed: int = 2) -> dict:
    """Validate the limiting residual-mass weight against a concrete sample.

    A weighted sample of m = 100,000 points targeting a three-atom law
    (points drawn from the law tilted by 1/value, weighted by their value)
    is resampled at the output ratios 1/2, 1 and 2; its exact conditional
    variance, scaled by the output size, must match the limiting formula
    nu{ w(x) (f - c*)^2 },  c* = nu{w(x) f} / nu{w(x)},
    within 2% relative, f the identity.
    """
    m, rel_tolerance = 100_000, 0.02
    # every atom's limiting copy count stays well clear of the integers for
    # ratios 1/2, 1 and 2, and stays small, so the fractional parts are
    # insensitive to the finite-sample fluctuation of the weight total
    target = DiscreteDistribution([(0.8, 0.2), (0.9, 0.3), (1.5, 0.5)])
    results = []
    passed = True
    values = np.array(target.values)
    probs = target.probabilities
    # sampling law tilted by 1/value makes (point, value) target the atoms
    tilt = probs / values
    tilt = tilt / np.sum(tilt)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = rng.choice(values.size, size=m, p=tilt)
    points = values[idx]
    # each point is its own weight, and phi and f are the identity
    sample = WeightedSample(points)
    for ell in (0.5, 1.0, 2.0):
        if not residual_regularity_check(target, ell, values):
            raise ValueError("atoms must keep the limiting copy counts non-integer")
        m_out = int(round(ell * m))
        limit_w = np.array([residual_limit_weight(x) for x in point_values(target, ell, values)])
        c_star = float(np.sum(probs * limit_w * values)) / float(np.sum(probs * limit_w))
        predicted = float(np.sum(probs * limit_w * (values - c_star) ** 2))
        exact = conditional_variance(RESIDUAL, sample, points, m_out)
        scaled = m_out * exact
        rel_err = abs(scaled - predicted) / predicted
        ok = rel_err <= rel_tolerance
        passed = passed and ok
        results.append(
            {
                "ratio": ell,
                "scaled_conditional_variance": scaled,
                "predicted_limit": predicted,
                "rel_error": rel_err,
                "passed": ok,
            }
        )
    return {
        "suite": "limit_weight",
        "passed": passed,
        "m": m,
        "rel_tolerance": rel_tolerance,
        "results": results,
    }

