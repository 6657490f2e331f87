"""Path-space reference oracles, for cross-checking the library's variance recursion.

These enumerate all n^k length-k paths, so they stop at an enumeration
cap.  The library keeps only the coordinates the filter carries and has
no cap; the tests hold the two against each other wherever the paths fit:

* :func:`exact_joint_smoothing` and :func:`forward_backward_marginals`
  give the smoothing law by direct summation and by alpha/beta passes;
* :func:`run_path_recursion` is the variance recursion with psi_k and
  gamma_k over full paths, pulling f back step by step through its own
  contractions of the kernel tables, and its :meth:`PathSpaceState.sigma2`
  also takes functions of the whole path;
* :func:`run_with_paths` runs the filter and rebuilds the full paths of
  every step, which the filter itself does not keep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from smclimits import (DiscreteHMM, ResamplingPolicy, SmcTrace, StepKernel, smc_init, smc_step,
                       step_kernel)
from smclimits import state_space

DEFAULT_PATH_CAP = 4096


def carried_marginal(a: np.ndarray, size: int) -> np.ndarray:
    """The marginal of a path array on the coordinates the filter carries, flattened.

    ``size`` is the carried cell count: n for the last coordinate alone,
    n^2 for the last two (``resample_move`` from step 2 on).
    """
    dims = 1 if size == a.shape[-1] else 2
    return np.sum(a, axis=tuple(range(a.ndim - dims))).ravel()


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


def pull_back(kernel: StepKernel, h: np.ndarray, p: int) -> np.ndarray:
    """x -> R(x, W^p h): h over length-k paths to a function over length-(k-1) paths.

    The path move rewrites coordinate k-1 (axis m) given coordinate k-2
    (axis e) before the extension to coordinate k (axis j).
    """
    rw = kernel.prop * kernel.w**p
    if kernel.moves is None:
        return np.einsum("...ij,ij->...i", h, rw)
    return np.einsum("ecm,mj,...emj->...ec", kernel.moves, rw, h)


def push_forward(kernel: StepKernel, meas: np.ndarray, p: int) -> np.ndarray:
    """The adjoint of :func:`pull_back`: a measure over length-(k-1) paths carried to length k."""
    rw = kernel.prop * kernel.w**p
    if kernel.moves is None:
        return np.einsum("...i,ij->...ij", meas, rw)
    return np.einsum("...ec,ecm,mj->...emj", meas, kernel.moves, rw)


@dataclass(frozen=True)
class PathStep:
    psi: np.ndarray           # smoothing law over all length-k paths
    gamma: np.ndarray         # second-moment measure, same indexing
    epsilon: int | None       # resampling indicator; None at step 1
    normalizer: float
    cv2_limit: float | None
    kernel: StepKernel | None  # the mutation into this step; None at step 1


@dataclass(frozen=True)
class PathSpaceState:
    """The recursion with psi_k and gamma_k over all length-k paths."""

    model: DiscreteHMM
    proposal_kind: str
    policy: ResamplingPolicy
    steps: tuple[PathStep, ...]

    @property
    def k(self) -> int:
        return len(self.steps)

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
        second = pull_back(entry.kernel, centered * centered, 2)
        first = pull_back(entry.kernel, centered, 1)  # also the carried L(f - mean)
        mutation_term = float(np.sum(prev.gamma * (second - first * first)))
        carried = self._sigma2(j - 1, first)
        base = (carried + mutation_term) / entry.normalizer**2
        return entry.epsilon * var + base


def path_recursion_init(model: DiscreteHMM, proposal_kind: str, policy) -> PathSpaceState:
    """Step 1: psi_1 = gamma_1 = the first filter law."""
    psi = model.initial * model.likelihoods[0]
    psi = psi / np.sum(psi)
    first = PathStep(psi, psi, None, 1.0, None, None)
    return PathSpaceState(model, proposal_kind, policy, (first,))


def path_recursion_step(state: PathSpaceState) -> PathSpaceState:
    """Advance the path-space recursion by one mutation-selection step."""
    model, policy = state.model, state.policy
    k = state.k + 1
    if k > model.horizon:
        raise ValueError("no observations left: the recursion already reached the horizon")
    require_path_space(model, k)
    kernel = step_kernel(model, k, state.proposal_kind)
    prev = state.steps[-1]
    ones = np.ones((model.n_states,) * k)
    normalizer = float(np.sum(prev.psi * pull_back(kernel, ones, 1)))
    gamma_total = float(np.sum(prev.gamma * pull_back(kernel, ones, 2))) / normalizer**2
    cv2_limit = max(gamma_total - 1.0, 0.0)
    epsilon = int(policy.should_fire(cv2_limit))
    target = model.transition * model.likelihoods[k - 1][None, :]
    psi = np.einsum("...i,ij->...ij", prev.psi, target)
    psi = psi / np.sum(psi)
    gamma = psi if epsilon else push_forward(kernel, prev.gamma, 2) / normalizer**2
    step = PathStep(psi, gamma, epsilon, normalizer, cv2_limit, kernel)
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


def run_with_paths(
    model, proposal_kind: str, policy, m: int, seed, horizon: int | None = None
) -> tuple[SmcTrace, list[np.ndarray]]:
    """Run the filter as ``smc_run`` does; also return the full (m_k, k) paths of every step.

    Each selection's ancestor indices are captured by swapping the
    module-level ``state_space.resample_indices`` for the run.  A record
    carrying c columns replaces the last c coordinates of its parents'
    paths: full(k) = [full(k-1)[ancestors][:, :k-c], paths_k].
    """
    horizon = model.horizon if horizon is None else horizon
    rng = state_space.as_rng(seed)
    draw = state_space.resample_indices
    selections = []

    def capture(*args):
        selections.append(draw(*args))
        return selections[-1]

    state_space.resample_indices = capture
    try:
        trace = smc_init(model, m, proposal_kind, policy, rng)
        for _ in range(2, horizon + 1):
            smc_step(trace, rng)
    finally:
        state_space.resample_indices = draw
    assert len(selections) == trace.n_resamples()  # one draw per record that resampled
    ancestors = iter(selections)
    full = trace.records[0].paths
    paths = [full]
    for rec in trace.records[1:]:
        if rec.resampled:
            full = full[next(ancestors)]
        full = np.hstack([full[:, : rec.step - rec.paths.shape[1]], rec.paths])
        paths.append(full)
    return trace, paths
