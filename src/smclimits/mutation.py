"""The mutation transformation on weighted samples.

Each parent particle is propagated through the proposal kernel a fixed
number of times (its offspring count) and every offspring inherits the
parent's weight multiplied by the kernel pair's importance weight.  The
conditional expectation of the offspring's weighted sum of any f, given
the parents, is exactly alpha * w_i * L(x_i, f): mutation is unbiased for
the target kernel.
"""

from __future__ import annotations

import numpy as np

from .kernels import MultiProposal, MutationKernelPair
from .weighted_sample import WeightedSample


def mutate(
    sample: WeightedSample,
    pair: MutationKernelPair,
    alpha: int,
    rng: np.random.Generator,
) -> WeightedSample:
    """Propagate every particle through ``pair``, ``alpha`` offspring each.

    The output holds exactly ``alpha * len(sample)`` particles laid out
    parent-major: offspring (i, k) sits at index alpha*(i-1) + k.  Random
    draws are consumed in that same order, which makes runs reproducible
    for a fixed generator state and keeps enumeration oracles well defined.

    Raises
    ------
    ValueError
        "invalid offspring count" when alpha < 1; "invalid weight" when the
        weight function returns a negative or non-finite value.
    """
    if alpha < 1:
        raise ValueError("invalid offspring count: alpha must be >= 1")
    return mutate_multi(sample, MultiProposal([pair] * alpha, pair.weight), rng)


def mutate_multi(
    sample: WeightedSample,
    multi: MultiProposal,
    rng: np.random.Generator,
) -> WeightedSample:
    """Mutation with one offspring per proposal kernel in the family.

    Offspring k of particle i is drawn from ``multi.proposals[k]`` and
    weighted with the shared average-kernel density; layout and rng
    consumption order are as in :func:`mutate`.
    """
    alpha = multi.offspring_count
    particles = []
    weights = np.empty(alpha * sample.size)
    j = 0
    for x, w in zip(sample.particles, sample.weights):
        for pair in multi.proposals:
            y = pair.propose(rng, x)
            incr = float(multi.weight(x, y))
            if not np.isfinite(incr) or incr < 0.0:
                raise ValueError("invalid weight: W(x, y) must be finite and nonnegative")
            particles.append(y)
            weights[j] = w * incr
            j += 1
    return WeightedSample(particles, weights)
