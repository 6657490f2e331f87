"""Exact asymptotic-variance recursion for the adaptive discrete filter.

For a discrete model every quantity in the filter's central limit theorem
is a finite sum: the smoothing law psi_k, the second-moment measure
gamma_k of the weighted system, the resampling indicators epsilon_k, the
normalizers and the asymptotic variance sigma_k^2(f).  Mutation, then
multinomial selection where the filter's own ``ResamplingPolicy.should_fire``
fires on the limiting squared CV max(gamma~(1) - 1, 0), map step k-1 to k:

    sigma~^2(f)  = [ sigma_{k-1}^2( L{f - psi_k(f)} )
                     + gamma_{k-1} R( {W f - R(., W f)}^2 ) ] / normalizer^2
    gamma~(f)    = gamma_{k-1} R( W^2 f ) / normalizer^2
    sigma_k^2(f) = epsilon_k Var_{psi_k}(f) + sigma~^2(f)
    gamma_k      = epsilon_k psi_k + (1 - epsilon_k) gamma~

from sigma_1^2 = Var_{psi_1} and gamma_1 = psi_1, an i.i.d. draw from the
first filter law (Chopin 2004 gives the same recursion for SISR).

It runs forward on the coordinates the filter carries: x_k, or
(x_{k-1}, x_k) for ``resample_move``.  There each kernel factors through
the parent's last coordinate, R W^p = Q_k D_p (``StepKernel.factors``),
sigma_k^2 is a quadratic form S_k, and with P = I - 1 psi_k^T

    R^T S_k R = epsilon_k (PR)^T diag(psi_k) (PR)
                + [ (D_1 PR)^T V_{k-1} (D_1 PR) + (PR)^T diag(gamma_{k-1} Q_k D_2) (PR)
                    - (Q_k D_1 PR)^T diag(gamma_{k-1}) (Q_k D_1 PR) ] / normalizer^2

reads S_{k-1} only through the n x n form V_{k-1} = Q_k^T S_{k-1} Q_k.
Each step keeps psi_k, gamma_k and its n x n form on terminal tables, so
a variance is a lookup and the recursion is linear in the horizon.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .resampling import MULTINOMIAL, ResamplingPolicy
from .state_space import (MAX_ORACLE_CELLS, PROPOSAL_KINDS, RESAMPLE_MOVE, DiscreteHMM,
                          step_kernel)

BOUNDARY_MARGIN = 0.1


@dataclass(frozen=True)
class _StepState:
    psi: np.ndarray           # smoothing law on the carried coordinates, x_k fastest
    gamma: np.ndarray         # second-moment measure, same indexing
    epsilon: int | None       # resampling indicator; None at step 1
    normalizer: float         # previous law carried through the target kernel
    cv2_limit: float | None   # limiting squared CV of the mutated weights, >= 0
    form: np.ndarray          # sigma_k^2 on terminal tables: f @ form @ f


@dataclass(frozen=True)
class VarianceRecursionState:
    """The recursion's steps 1 through k (immutable), as :func:`run_recursion` builds them."""

    model: DiscreteHMM
    proposal_kind: str
    policy: ResamplingPolicy
    steps: tuple[_StepState, ...]

    @property
    def k(self) -> int:
        return len(self.steps)

    @property
    def epsilons(self) -> tuple:
        return tuple(s.epsilon for s in self.steps[1:])

    def sigma2(self, f, k: int | None = None) -> float:
        """sigma_k^2(f) of a terminal table f at step k (default: the current step)."""
        k = self.k if k is None else k
        if not 1 <= k <= self.k:
            raise ValueError(f"step {k} outside 1..{self.k}")
        f = np.asarray(f, dtype=float)
        if f.shape != (self.model.n_states,):
            raise ValueError("f must be a terminal table, one value per state")
        f = f - np.min(f)  # the form kills constants: a near-constant f must not cancel in it
        return float(f @ self.steps[k - 1].form @ f)


def oracle_cells(n_states: int, horizon: int, proposal_kind: str) -> int:
    """The most array cells the recursion through ``horizon`` holds at once.

    Each step keeps psi and gamma, c cells each (c = n, or n^2 for
    ``resample_move`` after step 1), and its n x n form.  The two kernels'
    factors and the products of a step take at most 8 n c + 4 n^2 more, or
    3 n^2 when step 1 is the last: it only restricts the identity.
    """
    n = n_states
    c = n * n if proposal_kind == RESAMPLE_MOVE and horizon >= 2 else n
    working = 8 * n * c + 4 * n * n if horizon >= 2 else 3 * n * n
    return 2 * n + n * n + (horizon - 1) * (2 * c + n * n) + working


def _gram(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """a^T diag(weights) a."""
    return a.T @ (weights[:, None] * a)


def _restriction(psi, epsilon=1, mutation=None):
    """The map R -> R^T S_k R of one step; ``mutation`` is None at step 1.

    Otherwise it holds (V_{k-1}, gamma_{k-1}, Q_k, D_1, gamma_{k-1} Q_k D_2,
    normalizer), the terms of the module docstring's formula.
    """

    def restrict(r: np.ndarray) -> np.ndarray:
        pr = r - psi @ r
        if mutation is None:
            return _gram(pr, psi)
        v, gamma, q, d1, gamma2, normalizer = mutation
        x = d1 @ pr
        form = x.T @ v @ x
        form += _gram(pr, gamma2)
        form -= _gram(q @ x, gamma)  # in place: one working array of each size at a time
        form /= normalizer**2
        if epsilon:
            form += _gram(pr, psi)
        return form

    return restrict


def run_recursion(
    model: DiscreteHMM, proposal_kind: str, policy: ResamplingPolicy, horizon: int | None = None
) -> VarianceRecursionState:
    """Run the recursion from step 1 through ``horizon`` (default: all steps).

    Step 1 is psi_1 = gamma_1 = the first filter law, with variance
    functional Var_{psi_1}.  Raises ValueError on an unknown proposal kind,
    unless the recursion models the filter that runs ``policy`` (a discrete
    model and, when selection can fire, multinomial selection at ell = 1),
    unless 1 <= horizon <= the model's horizon, and when the run would hold
    more than ``MAX_ORACLE_CELLS`` cells at once.

    The indicator is ``policy.should_fire`` on the limiting squared CV,
    clamped at 0 as the filter's own statistic is: on flat steps rounding
    can leave gamma~(1) a few ulps below 1.  Under the "cv" trigger with a
    finite threshold one warning is emitted when the limiting trigger
    statistic sits within 10% of the threshold at any step: there the
    deterministic indicator stops predicting the finite-population
    decision reliably.
    """
    if proposal_kind not in PROPOSAL_KINDS:
        raise ValueError(f"unknown proposal kind {proposal_kind!r}")
    if not isinstance(model, DiscreteHMM):
        raise ValueError("the exact variance recursion needs a discrete model")
    if policy.trigger != "never" and policy.scheme != MULTINOMIAL:
        raise ValueError(
            "the exact variance recursion covers multinomial selection only; "
            "use scheme 'multinomial' (or trigger 'never') here"
        )
    if policy.trigger != "never" and policy.ratio != 1.0:
        raise ValueError(
            "the exact variance recursion assumes an output size equal to the "
            "input size; use ell 1 (or trigger 'never') here"
        )
    horizon = model.horizon if horizon is None else horizon
    if not 1 <= horizon <= model.horizon:
        raise ValueError(f"horizon outside 1..{model.horizon}")
    cells = oracle_cells(model.n_states, horizon, proposal_kind)
    if cells > MAX_ORACLE_CELLS:
        raise ValueError(
            f"the variance recursion would hold {cells} cells through step {horizon}, "
            f"over its budget of {MAX_ORACLE_CELLS}"
        )
    n = model.n_states
    psi = model.initial * model.likelihoods[0]
    psi = psi / np.sum(psi)
    restrict = _restriction(psi)
    steps = [_StepState(psi, psi, None, 1.0, None, restrict(np.eye(n)))]
    near = []  # (step, proximity) wherever the indicator sits near the threshold
    for k in range(2, horizon + 1):
        kernel = step_kernel(model, k, proposal_kind)
        q, d1 = kernel.factors(1)
        v = restrict(q)
        prev = steps[-1]
        psi = prev.psi @ q @ d1
        normalizer = float(np.sum(psi))
        psi /= normalizer
        gamma2 = prev.gamma @ q @ kernel.factors(2)[1]
        gamma_total = float(np.sum(gamma2)) / normalizer**2
        cv2_limit = max(gamma_total - 1.0, 0.0)
        epsilon = int(policy.should_fire(cv2_limit))
        if policy.trigger == "cv" and math.isfinite(policy.kappa2):
            proximity = abs(gamma_total - (1.0 + policy.kappa2)) / (1.0 + policy.kappa2)
            if proximity < BOUNDARY_MARGIN:
                near.append((k, proximity))
        restrict = _restriction(psi, epsilon, (v, prev.gamma, q, d1, gamma2, normalizer))
        gamma = psi if epsilon else gamma2 / normalizer**2
        form = restrict(np.tile(np.eye(n), (psi.size // n, 1)))  # on tables of x_k, lifted
        steps.append(_StepState(psi, gamma, epsilon, normalizer, cv2_limit, form))
    if near:
        warnings.warn(
            f"trigger statistic within {min(p for _, p in near):.1%} of the threshold at "
            f"{len(near)} step(s), the first at step {near[0][0]}; "
            "finite-population decisions may disagree with the indicator",
            RuntimeWarning,
            stacklevel=2,
        )
    return VarianceRecursionState(model, proposal_kind, policy, tuple(steps))
