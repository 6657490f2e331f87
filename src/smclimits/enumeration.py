"""Brute-force enumeration of resampling outcomes.

For small systems every realization of a resampling scheme can be listed
together with its probability, so conditional moments of the output
average are computed here by literally summing over the outcome space.
Nothing in this module uses the closed-form moment formulas: it is the
independent route the closed forms are checked against.

f enters as its values at the input points, ``f_values`` of shape (m,), or
(k, m) for k functions: the outcomes and their probabilities are then
listed once for all k.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .resampling import MULTINOMIAL, RESIDUAL, _moment_rows, _residual_alloc
from .weighted_sample import WeightedSample


@lru_cache(maxsize=None)
def _all_tuples(n_values: int, length: int) -> np.ndarray:
    """All index tuples of the given length, as a read-only (n_values**length, length) array."""
    if length == 0:
        out = np.empty((1, 0), dtype=np.int64)
    else:
        grids = np.meshgrid(*([np.arange(n_values)] * length), indexing="ij")
        out = np.stack([g.ravel() for g in grids], axis=1)
    out.setflags(write=False)
    return out


def enumerated_moments(
    scheme: str, sample: WeightedSample, f_values, m_out: int
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Exact conditional mean and variance of the output average of f.

    ``f_values`` are the f evaluations at the input points, in order,
    shape (m,) or (k, m); a (k, m) input gives k means and k variances.
    Every outcome of the scheme is enumerated, so the input must be small
    (the outcome count is m**m_out for multinomial and m**(residual
    draws) for the residual scheme).
    """
    vals, one = _moment_rows(sample, f_values, m_out)
    m = sample.size
    if scheme == MULTINOMIAL:
        p = sample.weights / sample.total
        outcomes = _all_tuples(m, m_out)
        probs = p[outcomes].prod(axis=1)
        averages = vals[:, outcomes].sum(axis=2) / m_out
    elif scheme == RESIDUAL:
        floors, probs_res, m_bar = _residual_alloc(sample.weights, sample.total, m_out)
        deterministic = (floors * vals).sum(axis=1)
        if probs_res is None:
            means, variances = deterministic / m_out, np.zeros(vals.shape[0])
            return (float(means[0]), 0.0) if one else (means, variances)
        outcomes = _all_tuples(m, m_out - m_bar)
        probs = probs_res[outcomes].prod(axis=1)
        averages = (deterministic[:, None] + vals[:, outcomes].sum(axis=2)) / m_out
    else:
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    # one contiguous row per function: np.dot rounds a strided row differently
    averages = np.ascontiguousarray(averages)
    means = np.array([np.dot(probs, row) for row in averages])
    seconds = np.array([np.dot(probs, row) for row in averages * averages])
    variances = seconds - means * means
    return (float(means[0]), float(variances[0])) if one else (means, variances)
