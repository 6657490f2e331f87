"""Path-space reference oracles, for cross-checking the windowed recursion.

These enumerate all n^k length-k paths, so they stop at an enumeration
cap.  The library keeps only a window of the last coordinates and has no
cap; the tests hold the two against each other wherever the paths fit:

* :func:`exact_joint_smoothing` and :func:`forward_backward_marginals`
  give the smoothing law by direct summation and by alpha/beta passes;
* :func:`run_path_recursion` is the variance recursion with psi_k and
  gamma_k over full paths, and its :meth:`PathSpaceState.sigma2` also
  takes functions of the whole path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from smclimits import DiscreteHMM, StepKernel, step_kernel
from smclimits.variance_oracle import (
    BOUNDARY_MARGIN,
    VarianceRecursionState,
    _StepState,
    recursion_init,
)

DEFAULT_PATH_CAP = 4096


def window_marginal(a: np.ndarray) -> np.ndarray:
    """The marginal of a path array on its last min(k, 3) coordinates."""
    return np.sum(a, axis=tuple(range(a.ndim - min(a.ndim, 3))))


@dataclass(frozen=True)
class PathDistribution:
    """An exact distribution over length-k state paths, one axis per step."""

    probs: np.ndarray  # shape (n,) * k, sums to 1

    @property
    def steps(self) -> int:
        return self.probs.ndim

    def marginal(self, step: int) -> np.ndarray:
        """Marginal law of coordinate ``step`` (1-based)."""
        axes = tuple(a for a in range(self.probs.ndim) if a != step - 1)
        return np.sum(self.probs, axis=axes)

    def expect_terminal(self, f_table: np.ndarray) -> float:
        """Expectation of a function of the terminal coordinate."""
        return float(np.dot(self.marginal(self.steps), np.asarray(f_table, dtype=float)))


def require_path_space(model: DiscreteHMM, k: int) -> None:
    """Raise "path space too large" when the n^k length-k paths exceed the enumeration cap."""
    if model.n_states**k > DEFAULT_PATH_CAP:
        raise ValueError(
            f"path space too large: {model.n_states}^{k} paths exceed {DEFAULT_PATH_CAP}"
        )


def exact_joint_smoothing(model: DiscreteHMM, k: int) -> PathDistribution:
    """The joint smoothing law over paths of length k, by direct summation.

    Proportional to initial(x_1) g_1(x_1) * prod_j transition(x_{j-1}, x_j)
    g_j(x_j), normalized over all n^k paths.  Raises "path space too
    large" beyond the enumeration cap.
    """
    if not 1 <= k <= model.horizon:
        raise ValueError(f"step {k} outside 1..{model.horizon}")
    require_path_space(model, k)
    psi = model.initial * model.likelihoods[0]
    psi = psi / np.sum(psi)
    for j in range(2, k + 1):
        kernel = model.transition * model.likelihoods[j - 1][None, :]
        psi = np.einsum("...i,ij->...ij", psi, kernel)
        psi = psi / np.sum(psi)
    return PathDistribution(psi)


def forward_backward_marginals(model: DiscreteHMM, k: int) -> np.ndarray:
    """Smoothing marginals P(x_j | record up to k) via scaled alpha/beta passes.

    Independent of the path-sum route; used to cross-check
    :func:`exact_joint_smoothing` and free of the enumeration cap.
    """
    if not 1 <= k <= model.horizon:
        raise ValueError(f"step {k} outside 1..{model.horizon}")
    n = model.n_states
    alphas = np.empty((k, n))
    a = model.initial * model.likelihoods[0]
    alphas[0] = a / np.sum(a)
    for j in range(1, k):
        a = (alphas[j - 1] @ model.transition) * model.likelihoods[j]
        alphas[j] = a / np.sum(a)
    betas = np.empty((k, n))
    betas[k - 1] = 1.0
    for j in range(k - 2, -1, -1):
        b = model.transition @ (model.likelihoods[j + 1] * betas[j + 1])
        betas[j] = b / np.sum(b)
    marg = alphas * betas
    return marg / np.sum(marg, axis=1, keepdims=True)


@dataclass(frozen=True)
class PathSpaceState(VarianceRecursionState):
    """The recursion with psi_k and gamma_k over all length-k paths."""

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


def path_recursion_init(model: DiscreteHMM, proposal_kind: str, policy) -> PathSpaceState:
    """Step 1, where the window and the full path coincide."""
    state = recursion_init(model, proposal_kind, policy)
    return PathSpaceState(state.model, state.proposal_kind, state.policy, state.steps)


def _mutation_totals(state: PathSpaceState, kernel: StepKernel) -> tuple[float, float]:
    """The normalizer psi R(W) and the mutated second moment gamma R(W^2) / normalizer^2."""
    ones = np.ones((kernel.model.n_states,) * kernel.k)
    normalizer = float(np.sum(state.steps[-1].psi * kernel.apply_rw(ones, 1)))
    gamma_total = float(np.sum(state.steps[-1].gamma * kernel.apply_rw(ones, 2))) / normalizer**2
    return normalizer, gamma_total


def path_recursion_step(state: PathSpaceState) -> PathSpaceState:
    """Advance the path-space recursion by one mutation-selection step."""
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
    psi = np.einsum("...i,ij->...ij", state.steps[-1].psi, target)
    psi = psi / np.sum(psi)
    if epsilon:
        gamma = psi
    else:
        gamma = kernel.push_w2(state.steps[-1].gamma) / normalizer**2
    step = _StepState(
        psi=psi,
        gamma=gamma,
        epsilon=epsilon,
        normalizer=normalizer,
        cv2_limit=cv2_limit,
        kernel=kernel,
    )
    return replace(state, steps=state.steps + (step,))


def run_path_recursion(
    model: DiscreteHMM, proposal_kind: str, policy, horizon: int | None = None
) -> PathSpaceState:
    """Run the path-space recursion from step 1 through ``horizon`` (default: all steps)."""
    horizon = model.horizon if horizon is None else horizon
    state = path_recursion_init(model, proposal_kind, policy)
    require_path_space(model, horizon)
    for _ in range(2, horizon + 1):
        state = path_recursion_step(state)
    return state
