"""Unbiased resampling schemes and their exact conditional moments.

Two schemes are provided.  Multinomial resampling draws output particles
i.i.d. from the normalized weights.  Deterministic-plus-residual sampling
first keeps floor(m_out * w_i / W) guaranteed copies of particle i, then
fills the remaining slots i.i.d. from the fractional parts.  Both satisfy
the unbiasedness condition: the conditional expectation of the output
average of any f equals the input weighted estimate of f.

The closed-form conditional mean/variance of the output average are exact
given the input sample; the residual variance is never larger than the
multinomial one.  The module also hosts the asymptotic quantities that
govern the residual scheme's large-population variance: the limiting
residual-mass weight and the limit of the deterministically copied part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernels import DiscreteDistribution
from .weighted_sample import Point, WeightedSample

MULTINOMIAL = "multinomial"
RESIDUAL = "residual"
_SCHEMES = (MULTINOMIAL, RESIDUAL)


@dataclass(frozen=True)
class ResamplingPolicy:
    """When and how a filter rejuvenates its particle system.

    ``trigger`` is one of "always", "never" or "cv"; with "cv" the filter
    resamples whenever the squared coefficient of variation of the weights
    reaches ``kappa2`` (non-strict comparison).  ``ratio`` sets the output
    size as a multiple of the input size.
    """

    scheme: str = MULTINOMIAL
    trigger: str = "always"
    kappa2: float = 0.0
    ratio: float = 1.0

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown resampling scheme {self.scheme!r}")
        if self.trigger not in ("always", "never", "cv"):
            raise ValueError(f"unknown trigger {self.trigger!r}")
        if self.trigger == "cv" and not self.kappa2 >= 0.0:
            raise ValueError("kappa2 must be nonnegative")
        if not self.ratio > 0.0:
            raise ValueError("the output-size ratio must be positive")

    def should_fire(self, cv2: float) -> bool:
        if self.trigger == "always":
            return True
        if self.trigger == "never":
            return False
        return cv2 >= self.kappa2

    def output_size(self, m_in: int) -> int:
        m_out = int(round(self.ratio * m_in))
        if m_out < 1:
            raise ValueError("resampling output size must be >= 1")
        return m_out


def categorical_indices(
    weights: np.ndarray, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Inverse-CDF categorical draws with binary search over the cumsum.

    One uniform per draw, consumed in draw order: the rng-to-outcome
    mapping is fixed, which the seeded reproducibility tests rely on.
    """
    cum = np.cumsum(weights)
    idx = np.searchsorted(cum, rng.random(n_draws) * cum[-1], side="right")
    return np.minimum(idx, weights.size - 1)


class ResidualAllocation(NamedTuple):
    """Deterministic copy counts and the residual stage's draw probabilities."""

    floors: np.ndarray          # guaranteed copies of each input particle
    residual_probs: np.ndarray | None  # None when the allocation is purely deterministic
    m_bar: int                  # total deterministic copies, <= m_out


def _residual_alloc(weights: np.ndarray, total: float, m_out: int) -> ResidualAllocation:
    target = weights * (float(m_out) / total)
    floors = np.floor(target)
    # Floors must never exceed the exact targets: if rounding pushed a
    # near-integer target up, back the suspect entries off until the total
    # deterministic count fits.
    m_bar = int(np.sum(floors))
    while m_bar > m_out:
        suspects = np.flatnonzero((floors > 0) & (target - floors == 0.0))
        if suspects.size == 0:
            suspects = np.flatnonzero(floors > 0)
        floors[suspects[0]] -= 1.0
        m_bar -= 1
    n_residual = m_out - m_bar
    if n_residual == 0:
        return ResidualAllocation(floors.astype(np.int64), None, m_bar)
    probs = (target - floors) / n_residual
    return ResidualAllocation(floors.astype(np.int64), probs, m_bar)


def resample_indices(
    weights: np.ndarray, m_out: int, scheme: str, rng: np.random.Generator
) -> np.ndarray:
    """Indices into the input that realize one resampling draw.

    Layout for the residual scheme: deterministic copies first, in input
    order, then the residual draws.  Both the sample-level functions below
    and the state-space filter route through here, so they realize the
    same outcome for the same generator state.
    """
    if m_out < 1:
        raise ValueError("m_out must be >= 1")
    weights = np.asarray(weights, dtype=float)
    if scheme == MULTINOMIAL:
        return categorical_indices(weights, m_out, rng)
    if scheme == RESIDUAL:
        floors, probs, m_bar = _residual_alloc(weights, float(np.sum(weights)), m_out)
        det = np.repeat(np.arange(weights.size), floors)
        if probs is None:
            return det
        extra = categorical_indices(probs, m_out - m_bar, rng)
        return np.concatenate([det, extra])
    raise ValueError(f"unknown resampling scheme {scheme!r}")


def residual_counts(sample: WeightedSample, m_out: int) -> ResidualAllocation:
    """Split ``m_out`` output slots into guaranteed copies plus a residual pool.

    Particle i receives floor(m_out * w_i / W) guaranteed copies; the
    leftover m_out - m_bar slots are to be drawn i.i.d. with probabilities
    proportional to the fractional parts.  When every target count is an
    integer the residual stage is empty and ``residual_probs`` is None.
    """
    if m_out < 1:
        raise ValueError("m_out must be >= 1")
    return _residual_alloc(sample.weights, sample.total, m_out)


def resample(
    sample: WeightedSample, scheme: str, m_out: int, rng: np.random.Generator
) -> WeightedSample:
    """Resample to ``m_out`` unit-weight copies of input particles.

    ``scheme`` is :data:`MULTINOMIAL` (i.i.d. draws proportional to the
    weights) or :data:`RESIDUAL` (guaranteed copies first, in input order,
    then the residual draws); the draws are those of :func:`resample_indices`.
    """
    idx = resample_indices(sample.weights, m_out, scheme, rng)
    return WeightedSample([sample.particles[i] for i in idx], np.ones(m_out))


def _f_values(sample: WeightedSample, f: Callable[[Point], float]) -> np.ndarray:
    vals = np.fromiter((f(p) for p in sample.particles), dtype=float, count=sample.size)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand")
    return vals


def conditional_mean(
    scheme: str, sample: WeightedSample, f: Callable[[Point], float], m_out: int
) -> float:
    """Exact conditional expectation of the output average of f.

    For any unbiased scheme this equals the input weighted estimate; the
    closed forms below make that explicit for both schemes (and are cross
    checked against full outcome enumeration in the test-suite).
    """
    vals = _f_values(sample, f)
    if scheme == MULTINOMIAL:
        return float(np.sum(sample.weights * vals)) / sample.total
    if scheme == RESIDUAL:
        floors, probs, m_bar = residual_counts(sample, m_out)
        det = float(np.sum(floors * vals))
        if probs is None:
            return det / m_out
        return (det + (m_out - m_bar) * float(np.sum(probs * vals))) / m_out
    raise ValueError(f"unknown resampling scheme {scheme!r}")


def conditional_variance(
    scheme: str, sample: WeightedSample, f: Callable[[Point], float], m_out: int
) -> float:
    """Exact conditional variance of the output average of f.

    Multinomial: the draws are i.i.d. from the normalized weights, so the
    variance is their f-variance divided by m_out.  Residual: only the
    residual stage is random; its m_out - m_bar i.i.d. draws from the
    fractional-part probabilities give
    (m_out - m_bar) * Var_probs(f) / m_out^2, which never exceeds the
    multinomial value.
    """
    vals = _f_values(sample, f)
    if scheme == MULTINOMIAL:
        p = sample.weights / sample.total
        mean = float(np.sum(p * vals))
        return (float(np.sum(p * vals * vals)) - mean * mean) / m_out
    if scheme == RESIDUAL:
        floors, probs, m_bar = residual_counts(sample, m_out)
        if probs is None:
            return 0.0
        mean = float(np.sum(probs * vals))
        var1 = float(np.sum(probs * vals * vals)) - mean * mean
        return (m_out - m_bar) * var1 / (m_out * m_out)
    raise ValueError(f"unknown resampling scheme {scheme!r}")


def residual_limit_weight(x: float) -> float:
    """Limiting residual-mass weight at the point value x.

    ``x`` stands for (output ratio) * nu(1/Phi) * Phi(xi), the limiting
    expected copy count of a particle at xi.  The weight is the fraction of
    that particle's mass left to the random residual stage:
    1 - floor(x)/x, which is 1 below 1, vanishes at positive integers, and
    is 0 for an infinite output ratio (pure deterministic copying).
    """
    if math.isinf(x):
        return 0.0
    if not x > 0.0:
        raise ValueError("the weight function must be positive")
    return 1.0 - math.floor(x) / x


def point_values(
    dist: DiscreteDistribution, ell: float, phi: Callable[[Point], float]
) -> np.ndarray:
    """Limiting expected copy count ell * nu(1/phi) * phi(v) of each atom v."""
    inv_phi = dist.expect(lambda v: 1.0 / phi(v))
    return np.array([ell * inv_phi * phi(v) for v in dist.values])


def residual_regularity_check(
    dist: DiscreteDistribution,
    ell: float,
    phi: Callable[[Point], float],
    tol: float = 1e-9,
) -> bool:
    """True when no atom's limiting copy count is an integer (or infinite).

    The residual scheme's limit variance is only defined under this
    condition; an integer-mass atom makes the deterministically copied
    part oscillate instead of converging.
    """
    if math.isinf(ell):
        return False
    xs = point_values(dist, ell, phi)
    for x, p in zip(xs, dist.probabilities):
        if p == 0.0:
            continue
        if math.isinf(x) or abs(x - round(x)) <= tol:
            return False
    return True


def residual_deterministic_limit(
    dist: DiscreteDistribution,
    ell: float,
    phi: Callable[[Point], float],
    f: Callable[[Point], float],
) -> float:
    """Limit of the deterministically copied average, nu(f * floor(x)/x).

    ``x`` per atom is as in :func:`residual_limit_weight`.  Requires the
    regularity check to pass; an integer-mass atom raises
    "atomic integer mass".
    """
    if not residual_regularity_check(dist, ell, phi):
        raise ValueError("atomic integer mass: the deterministic part has no limit")
    xs = point_values(dist, ell, phi)
    probs = dist.probabilities
    vals = np.array([f(v) for v in dist.values], dtype=float)
    return float(np.sum(probs * vals * np.floor(xs) / xs))
