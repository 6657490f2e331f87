"""Exact asymptotic-variance recursion for the adaptive discrete filter.

For a discrete model every quantity in the filter's central limit theorem
can be computed by finite summation over path space: the smoothing law
psi_k, the second-moment measure gamma_k of the weighted system, the
deterministic resampling indicators epsilon_k implied by the threshold,
the per-step normalizers, and the asymptotic variance functional
sigma_k^2(f).  One step of the recursion composes the mutation rule

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
i.i.d. draw from the first filter law).  Everything is evaluated by dense
tensor contractions over enumerated paths, so the oracle side of the
acceptance tests carries no Monte Carlo error at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .resampling import MULTINOMIAL, ResamplingPolicy
from .state_space import DiscreteHMM, StepKernel, require_path_space, step_kernel

BOUNDARY_MARGIN = 0.1


@dataclass(frozen=True)
class _StepState:
    psi: np.ndarray           # smoothing law over paths at this step
    gamma: np.ndarray         # second-moment measure, same indexing
    epsilon: int | None       # resampling indicator; None at step 1
    normalizer: float         # previous law carried through the target kernel
    cv2_limit: float | None   # limiting squared CV of the mutated weights, >= 0
    kernel: StepKernel | None  # the step's mutation kernel


@dataclass(frozen=True)
class VarianceRecursionState:
    """The recursion's history up to the current step (immutable)."""

    model: DiscreteHMM
    proposal_kind: str
    policy: ResamplingPolicy
    steps: tuple[_StepState, ...]

    @property
    def k(self) -> int:
        return len(self.steps)

    @property
    def psi(self) -> np.ndarray:
        return self.steps[-1].psi

    @property
    def gamma(self) -> np.ndarray:
        return self.steps[-1].gamma

    @property
    def epsilons(self) -> tuple:
        return tuple(s.epsilon for s in self.steps[1:])

    def path_function(self, f, k: int | None = None) -> np.ndarray:
        """f as an array over length-k paths; ``f`` is one, or a terminal-coordinate table."""
        shape = (self.model.n_states,) * (self.k if k is None else k)
        f = np.asarray(f, dtype=float)
        if f.shape == shape:
            return f
        if f.shape == shape[-1:]:
            return np.broadcast_to(f, shape).copy()
        raise ValueError("f must be a terminal table or a path array")

    def sigma2(self, f, k: int | None = None) -> float:
        """The asymptotic variance sigma_k^2(f) at step k (default: the current step)."""
        k = self.k if k is None else k
        if not 1 <= k <= self.k:
            raise ValueError(f"step {k} outside 1..{self.k}")
        return self._sigma2(k, self.path_function(f, k))

    def _sigma2(self, j: int, f: np.ndarray) -> float:
        entry = self.steps[j - 1]
        mean = float(np.sum(entry.psi * f))
        var = float(np.sum(entry.psi * (f - mean) ** 2))
        if j == 1:
            return var
        prev = self.steps[j - 2]
        # The fluctuation added by the mutation draw acts on the centered
        # function: the CLT statement fixes mean-zero f up front, and only
        # the centered form annihilates constants.
        centered = f - mean
        second = entry.kernel.apply_rw(centered * centered, 2)
        first = entry.kernel.apply_rw(centered, 1)  # also the carried L(f - mean)
        mutation_term = float(np.sum(prev.gamma * (second - first * first)))
        carried = self._sigma2(j - 1, first)
        base = (carried + mutation_term) / entry.normalizer**2
        return entry.epsilon * var + base


def recursion_init(
    model: DiscreteHMM, proposal_kind: str, policy: ResamplingPolicy
) -> VarianceRecursionState:
    """Step-1 state: psi_1 = gamma_1 = first filter law, variance functional Var_{psi_1}.

    Raises ValueError unless the recursion models the filter that runs
    ``policy``: a discrete model and, when selection can fire, multinomial
    selection at ell = 1.
    """
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
    psi = model.initial * model.likelihoods[0]
    psi = psi / np.sum(psi)
    step = _StepState(psi=psi, gamma=psi, epsilon=None, normalizer=1.0, cv2_limit=None, kernel=None)
    return VarianceRecursionState(model, proposal_kind, policy, (step,))


def _mutation_totals(state: VarianceRecursionState, kernel: StepKernel) -> tuple[float, float]:
    """The normalizer psi R(W) and the mutated second moment gamma R(W^2) / normalizer^2."""
    ones = np.ones((kernel.model.n_states,) * kernel.k)
    normalizer = float(np.sum(state.psi * kernel.apply_rw(ones, 1)))
    gamma_total = float(np.sum(state.gamma * kernel.apply_rw(ones, 2))) / normalizer**2
    return normalizer, gamma_total


def recursion_step(state: VarianceRecursionState) -> VarianceRecursionState:
    """Advance the recursion by one mutation-selection step.

    The indicator is ``policy.should_fire`` on the limiting squared CV,
    clamped at 0 as the filter's own statistic is: on flat steps rounding
    can leave gamma~(1) a few ulps below 1.  Under the "cv" trigger with a
    finite threshold a warning is emitted when the limiting trigger
    statistic sits within 10% of the threshold: there the deterministic
    indicator stops predicting the finite-population decision reliably.
    """
    model, policy = state.model, state.policy
    k = state.k + 1
    if k > model.horizon:
        raise ValueError("no observations left: the recursion already reached the horizon")
    require_path_space(model, k)
    kernel = step_kernel(model, k, state.proposal_kind)
    normalizer, gamma_total = _mutation_totals(state, kernel)
    cv2_limit = max(gamma_total - 1.0, 0.0)
    epsilon = int(policy.should_fire(cv2_limit))
    if policy.trigger == "cv" and math.isfinite(policy.kappa2):
        proximity = abs(gamma_total - (1.0 + policy.kappa2)) / (1.0 + policy.kappa2)
        if proximity < BOUNDARY_MARGIN:
            warnings.warn(
                f"trigger statistic within {proximity:.1%} of the threshold at step {k}; "
                "finite-population decisions may disagree with the indicator",
                RuntimeWarning,
                stacklevel=2,
            )
    target = model.transition * model.likelihoods[k - 1][None, :]
    psi = np.einsum("...i,ij->...ij", state.psi, target)
    psi = psi / np.sum(psi)
    if epsilon:
        gamma = psi
    else:
        gamma = kernel.push_w2(state.gamma) / normalizer**2
    step = _StepState(
        psi=psi,
        gamma=gamma,
        epsilon=epsilon,
        normalizer=normalizer,
        cv2_limit=cv2_limit,
        kernel=kernel,
    )
    return replace(state, steps=state.steps + (step,))


def run_recursion(
    model: DiscreteHMM,
    proposal_kind: str,
    policy: ResamplingPolicy,
    horizon: int | None = None,
) -> VarianceRecursionState:
    """Run the recursion from step 1 through ``horizon`` (default: all steps)."""
    horizon = model.horizon if horizon is None else horizon
    state = recursion_init(model, proposal_kind, policy)
    require_path_space(model, horizon)
    for _ in range(2, horizon + 1):
        state = recursion_step(state)
    return state
