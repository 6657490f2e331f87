"""Proposal kernels and their importance-weight functions.

A mutation targets a (finite, not necessarily Markovian) kernel L by
sampling from a proposal kernel R and correcting with the density
W(x, y) = dL(x,.)/dR(x,.)(y).  The pair (R, W) is all a mutation step
needs; an optional exact enumeration of R's support makes closed-form
oracles possible on discrete state spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .weighted_sample import Point

ProposeFn = Callable[[np.random.Generator, Point], Point]
WeightFn = Callable[[Point, Point], float]
SupportFn = Callable[[Point], list[tuple[Point, float]]]


@dataclass(frozen=True)
class MutationKernelPair:
    """A samplable proposal kernel R plus the weight function W = dL/dR.

    Attributes
    ----------
    propose : callable(rng, x) -> y
        Draws one offspring y ~ R(x, .).  All randomness enters through the
        explicit generator, so pairs are stateless and thread-safe.
    weight : callable(x, y) -> float
        Evaluates W(x, y) >= 0 for y in the support of R(x, .).
    support : callable(x) -> list of (y, probability), optional
        Exact enumeration of R(x, .) for discrete kernels; required by the
        enumeration oracles, absent for continuous proposals.
    is_reweighting : bool
        True for pairs whose proposal is the identity (Dirac at x): pure
        reweighting, the importance-sampling special case of mutation.
    degenerate_move : bool
        Set by the path-move construction when no move can be formed at the
        current step and the pair silently reduces to the plain one-step
        extension.
    """

    propose: ProposeFn
    weight: WeightFn
    support: Optional[SupportFn] = None
    is_reweighting: bool = False
    degenerate_move: bool = False

    def target_mass(self, x: Point) -> float:
        """L(x, full space) = sum over the support of R(x,{y}) * W(x,y).

        Only available for enumerable pairs.
        """
        if self.support is None:
            raise ValueError("target_mass requires an enumerable support")
        return float(sum(p * self.weight(x, y) for y, p in self.support(x)))

    def target_expectation(self, x: Point, f: Callable[[Point], float]) -> float:
        """L(x, f) = sum over the support of R(x,{y}) * W(x,y) * f(y)."""
        if self.support is None:
            raise ValueError("target_expectation requires an enumerable support")
        return float(sum(p * self.weight(x, y) * f(y) for y, p in self.support(x)))


@dataclass(frozen=True)
class MultiProposal:
    """A fixed family of proposal kernels sharing one weight function.

    Offspring k of every particle is drawn from ``proposals[k]``; the
    shared ``weight`` is the density of the target kernel with respect to
    the *average* of the proposals.  The offspring count is the (constant)
    number of proposals.
    """

    proposals: tuple[MutationKernelPair, ...]
    weight: WeightFn

    def __init__(self, proposals: Sequence[MutationKernelPair], weight: WeightFn):
        proposals = tuple(proposals)
        if len(proposals) < 1:
            raise ValueError("a multi-proposal needs at least one kernel")
        object.__setattr__(self, "proposals", proposals)
        object.__setattr__(self, "weight", weight)

    @property
    def offspring_count(self) -> int:
        return len(self.proposals)

    def average_support(self, x: Point) -> list[tuple[Point, float]]:
        """Support of the average kernel (1/alpha) sum_k R_k(x, .)."""
        alpha = self.offspring_count
        mass: dict = {}
        for pair in self.proposals:
            if pair.support is None:
                raise ValueError("average_support requires enumerable proposals")
            for y, p in pair.support(x):
                mass[y] = mass.get(y, 0.0) + p / alpha
        return list(mass.items())


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finitely supported probability distribution, atoms of (value, prob)."""

    atoms: tuple[tuple[Point, float], ...]

    def __init__(self, atoms: Sequence[tuple[Point, float]]):
        atoms = tuple((v, float(p)) for v, p in atoms)
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

    def expect(self, f: Callable[[Point], float]) -> float:
        return float(sum(p * f(v) for v, p in self.atoms))

    def sample(self, rng: np.random.Generator, size: int) -> list:
        """Draw i.i.d. values by inverse CDF over the cumulative probabilities."""
        cum = np.cumsum(self.probabilities)
        idx = np.searchsorted(cum, rng.random(size) * cum[-1], side="right")
        idx = np.minimum(idx, len(self.atoms) - 1)
        return [self.atoms[i][0] for i in idx]


def reweighting_pair(density_ratio: Callable[[Point], float]) -> MutationKernelPair:
    """Mutation pair that reweights particles in place without moving them.

    The proposal is the identity (Dirac at the current point) and the
    weight of the unmoved particle is ``density_ratio`` evaluated there,
    i.e. the target kernel is (a multiple of) d(target)/d(current) times
    the Dirac mass.  Raises "invalid density" on a negative ratio.
    """

    def _weight(x: Point, y: Point) -> float:
        r = float(density_ratio(y))
        if not np.isfinite(r) or r < 0.0:
            raise ValueError("invalid density: ratio must be finite and nonnegative")
        return r

    return MutationKernelPair(
        propose=lambda rng, x: x,
        weight=_weight,
        support=lambda x: [(x, 1.0)],
        is_reweighting=True,
    )

