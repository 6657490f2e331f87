"""Unbiased resampling schemes and their exact conditional moments.

Two schemes are provided, and both see the input only through its
weights.  Multinomial resampling draws output particles i.i.d. from the
normalized weights.  Deterministic-plus-residual sampling first keeps
floor(m_out * w_i / W) guaranteed copies of particle i, then fills the
remaining slots i.i.d. from the fractional parts.  Both satisfy the
unbiasedness condition: the conditional expectation of the output
average of any f equals the input weighted estimate of f.

The closed-form conditional mean/variance of the output average are exact
given the input sample; the residual variance is never larger than the
multinomial one.  They take f as its values at the input points,
``f_values`` of shape (m,), or (k, m) for k functions at once: one residual
allocation then serves all k, and each row gets the arithmetic of a
one-row call.
The module also hosts the asymptotic quantities that govern the residual
scheme's large-population variance: the limiting residual-mass weight and
the limit of the deterministically copied part, evaluated on a finitely
supported :class:`DiscreteDistribution`.  They take the weight function
phi and the test function f the same way, as ``phi_values`` and
``f_values`` at the atoms, in atom order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .weighted_sample import TINY, WeightedSample, f_value_rows, unit_scaled

MULTINOMIAL = "multinomial"
RESIDUAL = "residual"
_SCHEMES = (MULTINOMIAL, RESIDUAL)


@dataclass(frozen=True)
class ResamplingPolicy:
    """When and how a filter rejuvenates its particle system.

    ``trigger`` is one of "always", "never" or "cv"; with "cv" the filter
    resamples whenever the squared coefficient of variation of the weights
    reaches ``kappa2`` (non-strict comparison), which must be nonnegative
    under every trigger.  ``ratio`` sets the output size as a multiple of
    the input size.
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
        if not self.kappa2 >= 0.0:
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
    The keys are searched in sorted order, which makes the search's
    memory access and branches predictable.  The order cannot change an
    index: ``searchsorted`` places each key on its own, and every index
    is written back to its key's draw slot.
    """
    cum = np.cumsum(weights)
    if cum[-1] < TINY:
        cum = np.cumsum(unit_scaled(weights, float(cum[-1]))[0])
    u = rng.random(n_draws) * cum[-1]
    order = np.argsort(u)
    idx = np.empty(n_draws, dtype=np.intp)
    idx[order] = np.searchsorted(cum, u[order], side="right")
    return np.minimum(idx, weights.size - 1)


class ResidualAllocation(NamedTuple):
    """Deterministic copy counts and the residual stage's draw probabilities."""

    floors: np.ndarray          # guaranteed copies of each input particle
    residual_probs: np.ndarray | None  # None when the allocation is purely deterministic
    m_bar: int                  # total deterministic copies, <= m_out


def _residual_alloc(weights: np.ndarray, total: float, m_out: int) -> ResidualAllocation:
    """Input i gets floor(m_out * w_i / W) copies; the other m_out - m_bar slots
    are drawn from the fractional parts (``residual_probs`` None if there are none)."""
    if total < m_out * TINY:  # else u * total is quantised and m_out / total can overflow
        weights, total = unit_scaled(weights, total)
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

    ``scheme`` is :data:`MULTINOMIAL` (i.i.d. draws proportional to the
    weights) or :data:`RESIDUAL`, whose layout is the deterministic copies
    first, in input order, then the residual draws.  This is the one
    selection entry point; the state-space filter draws through it.
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


def _moment_rows(sample: WeightedSample, f_values, m_out: int) -> tuple[np.ndarray, bool]:
    """:func:`f_value_rows` for a moment of an ``m_out``-point output, checked >= 1."""
    if m_out < 1:
        raise ValueError("m_out must be >= 1")
    return f_value_rows(f_values, sample.size)


def conditional_mean(
    scheme: str, sample: WeightedSample, f_values, m_out: int
) -> float | np.ndarray:
    """Exact conditional expectation of the output average of f.

    ``f_values`` are f at the input points, shape (m,) or (k, m); a (k, m)
    input gives k means from one residual allocation.  For any unbiased
    scheme this equals the input weighted estimate; the closed forms below
    make that explicit for both schemes (and are cross checked against
    full outcome enumeration in the test-suite).
    """
    vals, one = _moment_rows(sample, f_values, m_out)
    if scheme == MULTINOMIAL:
        mean = np.sum(sample.weights * vals, axis=1) / sample.total
    elif scheme == RESIDUAL:
        floors, probs, m_bar = _residual_alloc(sample.weights, sample.total, m_out)
        det = np.sum(floors * vals, axis=1)
        if probs is None:
            mean = det / m_out
        else:
            mean = (det + (m_out - m_bar) * np.sum(probs * vals, axis=1)) / m_out
    else:
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    return float(mean[0]) if one else mean


def conditional_variance(
    scheme: str, sample: WeightedSample, f_values, m_out: int
) -> float | np.ndarray:
    """Exact conditional variance of the output average of f.

    ``f_values`` as in :func:`conditional_mean`.  Multinomial: the draws
    are i.i.d. from the normalized weights, so the variance is their
    f-variance divided by m_out.  Residual: only the residual stage is
    random; its m_out - m_bar i.i.d. draws from the fractional-part
    probabilities give (m_out - m_bar) * Var_probs(f) / m_out^2, which
    never exceeds the multinomial value.
    """
    vals, one = _moment_rows(sample, f_values, m_out)
    if scheme == MULTINOMIAL:
        p = sample.weights / sample.total
        mean = np.sum(p * vals, axis=1)
        var = (np.sum(p * vals * vals, axis=1) - mean * mean) / m_out
    elif scheme == RESIDUAL:
        floors, probs, m_bar = _residual_alloc(sample.weights, sample.total, m_out)
        if probs is None:
            var = np.zeros(vals.shape[0])
        else:
            mean = np.sum(probs * vals, axis=1)
            var1 = np.sum(probs * vals * vals, axis=1) - mean * mean
            var = (m_out - m_bar) * var1 / (m_out * m_out)
    else:
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    return float(var[0]) if one else var


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finitely supported probability distribution, atoms of (value, prob)."""

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        atoms = tuple((float(v), float(p)) for v, p in atoms)
        probs = np.array([p for _, p in atoms])
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(np.sum(probs)) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def values(self) -> tuple:
        return tuple(v for v, _ in self.atoms)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])

    def expect(self, f_values) -> float:
        """sum_i p_i f_i, f_i the value at atom i, summed left to right."""
        vals = _at_atoms(self, f_values)
        return float(sum(p * f for (_, p), f in zip(self.atoms, vals)))


def _at_atoms(dist: DiscreteDistribution, f_values) -> np.ndarray:
    """``f_values`` as floats, one per atom in atom order; ``ValueError`` on a wrong length."""
    vals = np.asarray(f_values, dtype=float)
    if vals.shape != (len(dist.atoms),):
        raise ValueError(f"expected {len(dist.atoms)} values, one per atom")
    return vals


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


def point_values(dist: DiscreteDistribution, ell: float, phi_values) -> np.ndarray:
    """Limiting expected copy count ell * nu(1/phi) * phi(v) of each atom v."""
    phi = _at_atoms(dist, phi_values)
    inv_phi = dist.expect(1.0 / phi)
    return ell * inv_phi * phi


def residual_regularity_check(
    dist: DiscreteDistribution, ell: float, phi_values, tol: float = 1e-9
) -> bool:
    """True when no atom's limiting copy count is an integer (or infinite).

    The residual scheme's limit variance is only defined under this
    condition; an integer-mass atom makes the deterministically copied
    part oscillate instead of converging.
    """
    if math.isinf(ell):
        return False
    xs = point_values(dist, ell, phi_values)
    for x, p in zip(xs, dist.probabilities):
        if p == 0.0:
            continue
        if math.isinf(x) or abs(x - round(x)) <= tol:
            return False
    return True


def residual_deterministic_limit(
    dist: DiscreteDistribution, ell: float, phi_values, f_values
) -> float:
    """Limit of the deterministically copied average, nu(f * floor(x)/x).

    ``x`` per atom is as in :func:`residual_limit_weight`.  Requires the
    regularity check to pass; an integer-mass atom raises
    "atomic integer mass".
    """
    if not residual_regularity_check(dist, ell, phi_values):
        raise ValueError("atomic integer mass: the deterministic part has no limit")
    xs = point_values(dist, ell, phi_values)
    probs = dist.probabilities
    vals = _at_atoms(dist, f_values)
    return float(np.sum(probs * vals * np.floor(xs) / xs))
