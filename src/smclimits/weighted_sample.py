"""Weighted samples and their diagnostics.

A weighted sample is an ordered collection of points, each carrying a
nonnegative importance weight, and is held as its weight vector: nothing
here needs more than the weights and f's values at the points.  All
estimators are self-normalized: they depend on the weights only through
w_i / sum(w), so rescaling every weight by a common positive constant
changes nothing.

Functions of the points enter as their values: ``f_values`` holds f at
each point, in order, with shape (m,) for one function or (k, m) for k
functions at once.  A (k, m) input gives k results, each by the arithmetic
a one-row call does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def f_value_rows(f_values, m: int) -> tuple[np.ndarray, bool]:
    """``f_values`` as C-contiguous (k, m) rows, and whether it was one row.

    Contiguous rows matter: a strided row sent to ``np.dot`` can round
    differently from the same values in a contiguous one-row call.
    Raises ``ValueError`` ("non-finite integrand") on any non-finite value.
    """
    vals = np.asarray(f_values, dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[-1] != m:
        raise ValueError(f"f_values must have shape ({m},) or (k, {m})")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand")
    return np.ascontiguousarray(np.atleast_2d(vals)), vals.ndim == 1


TINY = float(np.finfo(float).tiny)  # the smallest normal float


def unit_scaled(weights: np.ndarray, ref: float) -> tuple[np.ndarray, float]:
    """``weights`` and ``ref`` times the power of two that brings ``ref`` into [0.5, 1), exactly."""
    shift = -math.frexp(ref)[1]
    return np.ldexp(weights, shift), math.ldexp(ref, shift)


def weight_total(weights: np.ndarray) -> float:
    """Sum of weights.  numpy's pairwise summation keeps the error compensated."""
    return float(np.sum(weights))


def cv2_of_weights(weights: np.ndarray) -> float:
    """Relative variance of the normalized weights, M^-1 sum (M w_i / W - 1)^2.

    Shared by :meth:`WeightedSample.cv2` and the filter loop so both report
    bit-identical values for the same weight vector.
    """
    w = np.asarray(weights, dtype=float)
    m = w.size
    total = weight_total(w)
    if total <= 0.0:
        raise ValueError("degenerate weights: total weight is zero")
    dev = m * (w / total) - 1.0
    return float(np.sum(dev * dev)) / m


def ess_of_weights(weights: np.ndarray) -> float:
    """Effective sample size, (sum w)^2 / sum w^2, in [1, M], squares kept in the normal range."""
    w = np.asarray(weights, dtype=float)
    total = weight_total(w)
    if total <= 0.0:
        raise ValueError("degenerate weights: total weight is zero")
    squares = float(np.sum(w * w)) if total * total < math.inf else 0.0
    if squares < TINY:
        w, total = unit_scaled(w, total)
        squares = float(np.sum(w * w))
    return total * total / squares


def estimate_of_weights(weights: np.ndarray, f_values) -> float | np.ndarray:
    """Self-normalized weighted mean sum(w_i f_i) / sum(w_i), one per row of ``f_values``.

    Shared by :meth:`WeightedSample.estimate` and the filter so both give
    bit-identical values for the same weights.  Raises ``ValueError``
    ("non-finite integrand") on any non-finite value.
    """
    vals, one = f_value_rows(f_values, weights.size)
    est = np.sum(weights * vals, axis=1) / weight_total(weights)
    return float(est[0]) if one else est


@dataclass(frozen=True)
class WeightedSample:
    """An immutable weighted sample, held as its weights in linear scale.

    Raises ``ValueError`` on weights that are empty, not 1-d, negative,
    non-finite or all zero, or whose total overflows (zero total mass has no
    normalized form and is a hard error, never silently reset).
    """

    weights: np.ndarray
    total: float = field(init=False)
    size: int = field(init=False)

    def __init__(self, weights: Sequence[float] | np.ndarray):
        w = np.array(weights, dtype=float, copy=True)
        if w.ndim != 1:
            raise ValueError("weights must be 1-d")
        if w.size < 1:
            raise ValueError("a weighted sample holds at least one particle")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        with np.errstate(over="ignore"):  # an overflowing total is refused below
            total = weight_total(w)
        if total <= 0.0:
            raise ValueError("degenerate weights: total weight is zero")
        if total == math.inf:
            raise ValueError("weights overflow: their total is not finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "size", w.size)

    def estimate(self, f_values) -> float | np.ndarray:
        """Self-normalized weighted mean, see :func:`estimate_of_weights`."""
        return estimate_of_weights(self.weights, f_values)

    def ess(self) -> float:
        """Effective sample size, [sum (w_i/W)^2]^-1.

        Equals M for equal weights and 1 when a single weight carries all
        the mass; always satisfies ``ess * (1 + cv2) == M`` up to rounding.
        """
        return ess_of_weights(self.weights)

    def cv2(self) -> float:
        """Squared coefficient of variation of the normalized weights."""
        return cv2_of_weights(self.weights)

    def max_weight_fraction(self) -> float:
        """Largest normalized weight, max_i w_i / W, in (0, 1].

        The sample degenerates as this approaches 1; it must vanish along
        any sequence of consistent samples.
        """
        return float(np.max(self.weights)) / self.total
