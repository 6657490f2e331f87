"""Exact asymptotic-variance recursion for the adaptive discrete filter.

For a discrete model every quantity in the filter's central limit theorem
can be computed by finite summation: the smoothing law psi_k, the
second-moment measure gamma_k of the weighted system, the deterministic
resampling indicators epsilon_k implied by the threshold, the per-step
normalizers, and the asymptotic variance functional sigma_k^2(f).  One
step of the recursion composes the mutation rule

    sigma~^2(f) = [ sigma_{k-1}^2( L{f - psi_k(f)} )
                    + gamma_{k-1} R( {W f - R(., W f)}^2 ) ] / normalizer^2
    gamma~(f)   = gamma_{k-1} R( W^2 f ) / normalizer^2

with the multinomial-selection rule applied where the filter selects: the
indicator is the filter's own ``ResamplingPolicy.should_fire`` evaluated
at the limit of its statistic, the squared coefficient of variation
max(gamma~(1) - 1, 0):

    sigma_k^2(f) = epsilon_k Var_{psi_k}(f) + sigma~^2(f)
    gamma_k      = epsilon_k psi_k + (1 - epsilon_k) gamma~

seeded at step 1 by sigma_1^2 = Var_{psi_1} and gamma_1 = psi_1 (an
i.i.d. draw from the first filter law).  f is a function of x_k alone,
and each kernel reads at most x_{k-2}, x_{k-1}, x_k, so every pull-back
L f depends on the last two coordinates: psi_k and gamma_k are kept as
marginals on the last min(k, 3), at most n^3 cells per step at any
horizon.  Everything is evaluated by dense tensor contractions over that
window, so the oracle side of the acceptance tests carries no Monte
Carlo error at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .resampling import MULTINOMIAL, ResamplingPolicy
from .state_space import (MAX_ORACLE_CELLS, PROPOSAL_KINDS, RESAMPLE_MOVE, DiscreteHMM,
                          StepKernel, step_kernel)

BOUNDARY_MARGIN = 0.1
WINDOW = 3  # coordinates psi and gamma keep: the path move reads x_{k-2}, x_{k-1}, x_k


@dataclass(frozen=True)
class _StepState:
    psi: np.ndarray           # smoothing law on the last min(k, 3) coordinates
    gamma: np.ndarray         # second-moment measure, same indexing
    epsilon: int | None       # resampling indicator; None at step 1
    normalizer: float         # previous law carried through the target kernel
    cv2_limit: float | None   # limiting squared CV of the mutated weights, >= 0
    kernel: StepKernel | None  # the step's mutation kernel


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
        terms = []  # (step, Var_{psi_j}(f_j), mutation term): f is pulled back to step 1
        for j in range(k, 0, -1):
            entry = self.steps[j - 1]
            f = np.broadcast_to(f, entry.psi.shape)
            mean = float(np.sum(entry.psi * f))
            var = float(np.sum(entry.psi * (f - mean) ** 2))
            if j == 1:
                break
            # The fluctuation added by the mutation draw acts on the centered
            # function: the CLT statement fixes mean-zero f up front, and only
            # the centered form annihilates constants.
            centered = f - mean
            second = entry.kernel.apply_rw(centered * centered, 2)
            f = entry.kernel.apply_rw(centered, 1)  # also the carried L(f - mean)
            mutation_term = float(np.sum(self.steps[j - 2].gamma * (second - f * f)))
            terms.append((entry, var, mutation_term))
        for entry, step_var, mutation_term in reversed(terms):  # then folded forward
            var = entry.epsilon * step_var + (var + mutation_term) / entry.normalizer**2
        return var


def oracle_cells(n_states: int, horizon: int, proposal_kind: str) -> int:
    """The most array cells the recursion through ``horizon`` holds at once.

    Step k keeps psi and gamma (n^min(k, 3) cells each) and its kernel's
    ``prop`` and ``w`` (n^2 + n), and for ``resample_move`` from step 3 the
    n^3 move matrices; the last step adds its n^min(H, 4)-cell working array.
    """
    n, w = n_states, min(horizon, WINDOW)
    windows = 2 * (sum(n**k for k in range(1, w + 1)) + (horizon - w) * n**WINDOW)
    moves = max(horizon - 2, 0) * n**3 if proposal_kind == RESAMPLE_MOVE else 0
    working = n ** min(horizon, WINDOW + 1) if horizon >= 2 else 0
    return windows + max(horizon - 1, 0) * (n**2 + n) + moves + working


def _mutation_totals(prev: _StepState, kernel: StepKernel) -> tuple[float, float]:
    """The normalizer psi R(W) and the mutated second moment gamma R(W^2) / normalizer^2."""
    # R(W^p) of the constant 1 depends only on the coordinates the kernel reads
    ones = np.ones((kernel.model.n_states,) * (3 if kernel.has_move else 2))
    normalizer = float(np.sum(prev.psi * kernel.apply_rw(ones, 1)))
    gamma_total = float(np.sum(prev.gamma * kernel.apply_rw(ones, 2))) / normalizer**2
    return normalizer, gamma_total


def _window(a: np.ndarray, total: float) -> np.ndarray:
    """a / total in place (one working array alive at a time), any axis past the window summed."""
    a /= total
    return np.sum(a, axis=0) if a.ndim > WINDOW else a


def _next_step(
    model: DiscreteHMM, proposal_kind: str, policy: ResamplingPolicy, prev: _StepState, k: int
) -> _StepState:
    """Step k of the recursion from step k-1: one mutation-selection step.

    The indicator is ``policy.should_fire`` on the limiting squared CV,
    clamped at 0 as the filter's own statistic is: on flat steps rounding
    can leave gamma~(1) a few ulps below 1.  Under the "cv" trigger with a
    finite threshold a warning is emitted when the limiting trigger
    statistic sits within 10% of the threshold: there the deterministic
    indicator stops predicting the finite-population decision reliably.
    """
    kernel = step_kernel(model, k, proposal_kind)
    normalizer, gamma_total = _mutation_totals(prev, kernel)
    cv2_limit = max(gamma_total - 1.0, 0.0)
    epsilon = int(policy.should_fire(cv2_limit))
    if policy.trigger == "cv" and math.isfinite(policy.kappa2):
        proximity = abs(gamma_total - (1.0 + policy.kappa2)) / (1.0 + policy.kappa2)
        if proximity < BOUNDARY_MARGIN:
            warnings.warn(
                f"trigger statistic within {proximity:.1%} of the threshold at step {k}; "
                "finite-population decisions may disagree with the indicator",
                RuntimeWarning,
                stacklevel=3,
            )
    target = model.transition * model.likelihoods[k - 1][None, :]
    psi = np.einsum("...i,ij->...ij", prev.psi, target)
    psi = _window(psi, np.sum(psi))
    gamma = psi if epsilon else _window(kernel.push_w2(prev.gamma), normalizer**2)
    return _StepState(psi, gamma, epsilon, normalizer, cv2_limit, kernel)


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
    psi = model.initial * model.likelihoods[0]
    psi = psi / np.sum(psi)
    steps = [_StepState(psi, psi, epsilon=None, normalizer=1.0, cv2_limit=None, kernel=None)]
    for k in range(2, horizon + 1):
        steps.append(_next_step(model, proposal_kind, policy, steps[-1], k))
    return VarianceRecursionState(model, proposal_kind, policy, tuple(steps))
