"""State-space models and the adaptive particle filter for their smoothing laws.

The object of interest is the joint smoothing distribution: the conditional
law of the state path x_{1:k} given a fixed observation record.  Particles
are paths; at step k each particle is extended by one coordinate through a
proposal kernel and reweighted, and the system is rejuvenated by
resampling whenever the weight skewness crosses the policy's threshold.

Each step keeps only the coordinates the next mutation reads, so the
filter's state is O(m) per step whatever the horizon: every quantity the
library reads from a run is a function of the current coordinate.

Three proposal kernels are built in:

* ``prior``    - extend with the state transition; the incremental weight
  is the new state's observation likelihood.
* ``optimal``  - extend with the transition tilted by the likelihood; the
  incremental weight is the predictive likelihood of the observation given
  the parent's last state, constant over that parent's offspring.
* ``resample_move`` - first rejuvenate the path's last coordinate with a
  Metropolis-Hastings move that leaves the previous smoothing law
  invariant, then extend as the prior kernel does.

Each kind is defined once, by :func:`step_kernel`; the filter and the
variance oracle both read that definition.  For discrete models every
oracle quantity is an exact finite sum, which the oracle modules rely on; a
scalar linear-Gaussian model is included for continuous-state smoke
tests with Kalman-filter reference values.  :meth:`SmcTrace.terminal_estimate`
takes f as ``f_values``, its values at the current particles: (m,) or (k, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .resampling import ResamplingPolicy, resample_indices
from .weighted_sample import TINY, cv2_of_weights, ess_of_weights, estimate_of_weights, unit_scaled

PRIOR = "prior"
OPTIMAL = "optimal"
RESAMPLE_MOVE = "resample_move"
PROPOSAL_KINDS = (PRIOR, OPTIMAL, RESAMPLE_MOVE)

MAX_POPULATION = 2**22  # largest particle count selection may grow a run to
MAX_ORACLE_CELLS = 2**24  # most array cells the variance recursion may hold at once


@dataclass(frozen=True)
class DiscreteHMM:
    """A finite-state hidden Markov model with a fixed observation record.

    Parameters
    ----------
    initial : array (n,)
        Initial state distribution.
    transition : array (n, n)
        Row-stochastic transition matrix.
    likelihoods : array (horizon, n)
        ``likelihoods[k-1][x]`` is the observation likelihood at step k in
        state x.  All entries must be strictly positive: positive
        likelihoods keep every weight function bounded on the finite state
        space, so every bounded test function is admissible for the limit
        theorems the oracles certify.
    """

    initial: np.ndarray
    transition: np.ndarray
    likelihoods: np.ndarray

    def __init__(self, initial, transition, likelihoods):
        initial = np.array(initial, dtype=float)
        transition = np.array(transition, dtype=float)
        likelihoods = np.array(likelihoods, dtype=float)
        if not all(np.all(np.isfinite(a)) for a in (initial, transition, likelihoods)):
            raise ValueError("initial, transition and likelihood entries must be finite")
        n = initial.size
        if n < 2:
            raise ValueError("a discrete model needs at least two states")
        if transition.shape != (n, n):
            raise ValueError("transition matrix shape must match the state count")
        if likelihoods.ndim != 2 or likelihoods.shape[1] != n:
            raise ValueError("likelihood table must be (horizon, n_states)")
        if abs(float(np.sum(initial)) - 1.0) > 1e-12 or np.any(initial < 0.0):
            raise ValueError("initial distribution must be a probability vector")
        rows = np.sum(transition, axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12) or np.any(transition < 0.0):
            raise ValueError("transition rows must be probability vectors")
        if not np.all(likelihoods > 0.0):
            raise ValueError("likelihoods must be strictly positive")
        for a in (initial, transition, likelihoods):
            a.setflags(write=False)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "likelihoods", likelihoods)

    @property
    def n_states(self) -> int:
        return self.initial.size

    @property
    def horizon(self) -> int:
        return self.likelihoods.shape[0]

    def to_dict(self) -> dict:
        return {
            "type": "discrete_hmm",
            "initial": self.initial.tolist(),
            "transition": self.transition.tolist(),
            "likelihoods": self.likelihoods.tolist(),
        }


def random_likelihood_table(
    horizon: int, n_states: int, obs_seed: int, low: float = 0.3, high: float = 3.0
) -> np.ndarray:
    """Draw a strictly positive likelihood table from a pinned seed.

    Entries are independent Uniform(low, high); the same seed always
    yields the same observation record, and reports echo the table so the
    record is auditable.
    """
    rng = np.random.default_rng(np.random.SeedSequence(obs_seed))
    return rng.uniform(low, high, size=(horizon, n_states))


@dataclass(frozen=True)
class LinearGaussianSSM:
    """Scalar AR(1) state with additive Gaussian observation noise.

    The state starts from its stationary law (|ar_coeff| < 1 required) and
    evolves as x_k = ar_coeff * x_{k-1} + N(0, state_std^2); observations
    are y_k = x_k + N(0, obs_std^2).  Used for continuous-state smoke
    tests; the Kalman filter supplies exact reference moments.
    """

    ar_coeff: float
    state_std: float
    obs_std: float
    observations: np.ndarray

    def __init__(self, ar_coeff, state_std, obs_std, observations):
        observations = np.array(observations, dtype=float)
        if not np.all(np.isfinite([ar_coeff, state_std, obs_std])):
            raise ValueError("ar_coeff, state_std and obs_std must be finite")
        if not (state_std > 0.0 and obs_std > 0.0):
            raise ValueError("noise standard deviations must be positive")
        if not abs(ar_coeff) < 1.0:
            raise ValueError("|ar_coeff| < 1 is required for a stationary start")
        observations.setflags(write=False)
        object.__setattr__(self, "ar_coeff", float(ar_coeff))
        object.__setattr__(self, "state_std", float(state_std))
        object.__setattr__(self, "obs_std", float(obs_std))
        object.__setattr__(self, "observations", observations)

    @property
    def horizon(self) -> int:
        return self.observations.size

    @property
    def stationary_var(self) -> float:
        return self.state_std**2 / (1.0 - self.ar_coeff**2)

    def simulate_observations(self, horizon: int, obs_seed: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(obs_seed))
        x = rng.normal(0.0, math.sqrt(self.stationary_var))
        ys = np.empty(horizon)
        for k in range(horizon):
            if k > 0:
                x = self.ar_coeff * x + rng.normal(0.0, self.state_std)
            ys[k] = x + rng.normal(0.0, self.obs_std)
        return ys

    def kalman_filter(self) -> tuple[np.ndarray, np.ndarray]:
        """Filtered means and variances E[x_k | y_{1:k}], Var[x_k | y_{1:k}]."""
        means = np.empty(self.horizon)
        variances = np.empty(self.horizon)
        pred_mean, pred_var = 0.0, self.stationary_var
        for k, y in enumerate(self.observations):
            gain = pred_var / (pred_var + self.obs_std**2)
            mean = pred_mean + gain * (y - pred_mean)
            var = (1.0 - gain) * pred_var
            means[k], variances[k] = mean, var
            pred_mean = self.ar_coeff * mean
            pred_var = self.ar_coeff**2 * var + self.state_std**2
        return means, variances

    def to_dict(self) -> dict:
        return {
            "type": "linear_gaussian",
            "ar_coeff": self.ar_coeff,
            "state_std": self.state_std,
            "obs_std": self.obs_std,
            "observations": self.observations.tolist(),
        }


# ---------------------------------------------------------------------------
# The step kernel: proposal R and weight W = dL/dR of one mutation step
# ---------------------------------------------------------------------------


def _rows_categorical(
    cum: np.ndarray, rows: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One inverse-CDF draw per entry of ``rows``, from that row of the table ``cum``.

    ``cum`` holds cumulative probabilities, one row per parent state.  Draw
    i reads one uniform, in draw order, and its key is that uniform times
    ``cum[rows[i], -1]``.  The index is the number of row entries <= the
    key, clipped to n - 1.  It is counted one column at a time over the
    first n - 1 columns, which needs no clip: rows of ``cum`` never
    decrease, so when the last entry is <= the key every entry is, and
    both forms give n - 1.
    """
    u = rng.random(rows.size) * cum[:, -1][rows]
    idx = np.zeros(rows.size, dtype=np.int64)
    for column in cum[:, :-1].T:
        idx += column[rows] <= u
    return idx


@dataclass(frozen=True, eq=False)
class StepKernel:
    """The proposal kernel R and weight W = dL/dR of the mutation into step k.

    This is the one definition of each proposal kind.  The filter samples
    through :meth:`mutate`, and the variance oracle reads R(., W^p .)
    between the carried coordinates through :meth:`factors`.

    For discrete models ``prop[parent, child]`` is the law of the new
    coordinate given the parent's last one, and ``w`` is W with a length-1
    axis on the side it ignores: ``g_k[None, :]`` for the prior and the
    path move, the predictive likelihoods ``norms[:, None]`` for the
    optimal kernel.  From step 3 on, ``resample_move`` first moves the
    parent's last coordinate through :attr:`moves`.  The linear-Gaussian
    kernels hold no tables.
    """

    model: DiscreteHMM | LinearGaussianSSM
    k: int
    kind: str
    prop: np.ndarray | None = None
    w: np.ndarray | None = None

    @property
    def has_move(self) -> bool:
        """True when the parent's last coordinate moves before the extension."""
        return self.kind == RESAMPLE_MOVE and self.k >= 3

    @property
    def _move_target(self) -> np.ndarray:
        # t[e, x] = transition[e, x] * g_{k-1}(x): the smoothing law's
        # conditional of coordinate k-1 given coordinate k-2, unnormalized
        return self.model.transition * self.model.likelihoods[self.k - 2][None, :]

    @cached_property
    def moves(self) -> np.ndarray | None:
        """Metropolis-Hastings matrices rejuvenating coordinate k-1 (None without a move).

        Element [e, c, m] is the chance that the path's last coordinate
        moves from c to m when the coordinate before it is e.  The move
        proposes uniformly over states and accepts with the ratio of the
        target conditional t_e; by detailed balance each matrix leaves t_e
        invariant.  Built on first use: the filter's sampler never reads it.
        """
        if not self.has_move:
            return None
        target = self._move_target
        n = target.shape[0]
        pos = target > 0.0
        # rows with t_e[c] > 0 accept with min(1, t_e[m]/t_e[c]); rows at a
        # null point of the target accept everything
        mats = target[:, None, :] / np.where(pos, target, 1.0)[:, :, None]
        np.minimum(mats, 1.0, out=mats)
        mats[~pos] = 1.0
        mats /= n
        diagonal = (slice(None), np.arange(n), np.arange(n))
        mats[diagonal] = 0.0
        mats[diagonal] = 1.0 - mats.sum(axis=2)
        return mats

    def _lgssm_log_weight(self, last, new):
        model = self.model
        y = model.observations[self.k - 1]
        if self.kind == PRIOR:
            mean, var = new, model.obs_std**2
        else:
            mean, var = model.ar_coeff * last, model.state_std**2 + model.obs_std**2
        return -0.5 * (y - mean) ** 2 / var - 0.5 * math.log(2.0 * math.pi * var)

    def mutate(
        self, paths: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Extend every path by one coordinate; return the carried columns and log W.

        ``paths`` needs only the columns the kernel reads: the last
        coordinate, and for the path move the one before it.  The result
        holds the columns the next step reads: the new coordinate, and for
        ``resample_move`` the (possibly moved) parent coordinate before it.

        Draws per path, in this order: for the path move, a uniform
        proposal for every path, then an acceptance uniform for every
        path; then one draw per path for the new coordinate.
        """
        last = paths[:, -1]
        m = paths.shape[0]
        if self.w is None:
            model = self.model
            noise = rng.standard_normal(m)
            if self.kind == PRIOR:
                new = model.ar_coeff * last + model.state_std * noise
            else:
                sx2, tau2 = model.state_std**2, model.obs_std**2
                post_var = sx2 * tau2 / (sx2 + tau2)
                y = model.observations[self.k - 1]
                post_mean = post_var * (model.ar_coeff * last / sx2 + y / tau2)
                new = post_mean + math.sqrt(post_var) * noise
            return new[:, None], self._lgssm_log_weight(last, new)
        if self.has_move:
            target = self._move_target
            prev = paths[:, -2]
            proposals = rng.integers(0, target.shape[0], size=m)
            t_prop = target[prev, proposals]
            t_cur = target[prev, last]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(t_cur > 0.0, t_prop / np.where(t_cur > 0.0, t_cur, 1.0), np.inf)
            last = np.where(rng.random(m) < ratio, proposals, last)
        new = _rows_categorical(np.cumsum(self.prop, axis=1), last, rng)
        carried = np.stack([last, new], axis=1) if self.kind == RESAMPLE_MOVE else new[:, None]
        w = self.w.ravel()[new if self.w.shape[0] == 1 else last]
        return carried, np.log(w)

    def factors(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """R(., W^p .) as Q @ D between carried coordinates, flattened last coordinate fastest.

        Those are x_k, or (x_{k-1}, x_k) for ``resample_move``.  Q maps the
        parent to its last coordinate m after the move (the identity, or
        :attr:`moves`), and D is ``prop * w**p``, for ``resample_move`` in
        block form: it keeps m as the child's first coordinate.
        """
        n = self.model.n_states
        rw = self.prop * self.w**p
        q = np.eye(n) if self.moves is None else self.moves.reshape(n * n, n)
        if self.kind != RESAMPLE_MOVE:
            return q, rw
        return q, (np.eye(n)[:, :, None] * rw[:, None, :]).reshape(n, n * n)


def step_kernel(model: DiscreteHMM | LinearGaussianSSM, k: int, kind: str) -> StepKernel:
    """The proposal kernel and weight of the mutation into step k.

    ``prior`` extends with the transition and weights by g_k.  ``optimal``
    extends with the transition tilted by g_k and weights by the tilt's
    normalizer, the predictive likelihood sum_j transition[x_{k-1}, j]
    g_k(j), which depends on the parent only.  ``resample_move`` moves the
    parent's last coordinate first and then extends as the prior does; at
    step 2 there is no coordinate before the parent's, so no move is made
    (``has_move`` is False) and the kernel is the prior's.
    """
    if not 2 <= k <= model.horizon:
        raise ValueError(f"step {k} outside 2..{model.horizon}")
    if kind not in PROPOSAL_KINDS:
        raise ValueError(f"unknown proposal kind {kind!r}")
    if isinstance(model, LinearGaussianSSM):
        if kind == RESAMPLE_MOVE:
            raise ValueError("the path move is only available for discrete models")
        return StepKernel(model, k, kind)
    g = model.likelihoods[k - 1][None, :]
    if kind != OPTIMAL:
        return StepKernel(model, k, kind, model.transition, g)
    tilted = model.transition * g
    norms = np.sum(tilted, axis=1, keepdims=True)
    if np.any(norms <= 0.0):
        raise ValueError("optimal kernel undefined: a transition row has zero tilted mass")
    return StepKernel(model, k, kind, tilted / norms, norms)


# ---------------------------------------------------------------------------
# The exact filter law
# ---------------------------------------------------------------------------


def filter_marginal(model: DiscreteHMM, k: int) -> np.ndarray:
    """The filter law of x_k given the record up to step k, by a normalized forward pass."""
    if not 1 <= k <= model.horizon:
        raise ValueError(f"step {k} outside 1..{model.horizon}")
    psi = model.initial * model.likelihoods[0]
    psi = psi / np.sum(psi)
    for j in range(2, k + 1):
        psi = psi @ (model.transition * model.likelihoods[j - 1][None, :])
        psi = psi / np.sum(psi)
    return psi


# ---------------------------------------------------------------------------
# The adaptive filter
# ---------------------------------------------------------------------------


@dataclass
class StepRecord:
    """Diagnostics and the particle system at one filter step.

    ``ess``, ``cv2`` and ``max_weight_fraction`` describe the *mutated*
    (pre-selection) weights, which is what the trigger inspects;
    ``paths``/``weights`` hold the post-selection system.  Weights carry
    an arbitrary common scale, which leaves every self-normalized quantity
    untouched.

    ``paths`` holds only the columns the next mutation reads: the last
    coordinate, and for ``resample_move`` from step 2 on the one before it
    as well (the path move rewrites it).
    """

    step: int
    ess: float
    cv2: float
    resampled: bool
    max_weight_fraction: float
    paths: np.ndarray
    weights: np.ndarray


@dataclass
class SmcTrace:
    """One filter run: a record per step, each holding only that step's columns."""

    model: DiscreteHMM | LinearGaussianSSM
    proposal_kind: str
    policy: ResamplingPolicy
    records: list[StepRecord] = field(default_factory=list)

    @property
    def step(self) -> int:
        return len(self.records)

    @property
    def current(self) -> StepRecord:
        return self.records[-1]

    def terminal_estimate(self, f_values) -> float | np.ndarray:
        """Weighted estimate from f at the current particles, e.g. ``table[paths[:, -1]]``."""
        return estimate_of_weights(self.current.weights, f_values)

    def decisions(self) -> list[bool]:
        return [r.resampled for r in self.records[1:]]

    def cv2_by_step(self) -> list[float]:
        return [r.cv2 for r in self.records]

    def n_resamples(self) -> int:
        return sum(r.resampled for r in self.records)


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))


def smc_init(
    model: DiscreteHMM | LinearGaussianSSM,
    m: int,
    proposal_kind: str,
    policy: ResamplingPolicy,
    rng: np.random.Generator,
) -> SmcTrace:
    """Start a run with m i.i.d. draws from the exact first filter law.

    For the discrete model that law is the categorical proportional to
    initial * g_1; for the linear-Gaussian model it is the conjugate
    normal posterior of x_1 given y_1.  Starting from the first *filter*
    (not the prior) is what the step-1 hypothesis of the variance
    recursion assumes.
    """
    if m < 1:
        raise ValueError("particle count must be >= 1")
    if proposal_kind not in PROPOSAL_KINDS:
        raise ValueError(f"unknown proposal kind {proposal_kind!r}")
    if isinstance(model, DiscreteHMM):
        first = model.initial * model.likelihoods[0]
        start = np.zeros(m, dtype=np.int64)
        paths = _rows_categorical(np.cumsum(first)[None, :], start, rng)[:, None]
    else:
        v0 = model.stationary_var
        tau2 = model.obs_std**2
        post_var = v0 * tau2 / (v0 + tau2)
        post_mean = v0 * model.observations[0] / (v0 + tau2)
        paths = (post_mean + math.sqrt(post_var) * rng.standard_normal(m))[:, None]
    weights = np.ones(m)
    record = StepRecord(
        step=1,
        ess=float(m),
        cv2=0.0,
        resampled=False,
        max_weight_fraction=1.0 / m,
        paths=paths,
        weights=weights,
    )
    return SmcTrace(model, proposal_kind, policy, [record])


def smc_step(trace: SmcTrace, rng: np.random.Generator) -> SmcTrace:
    """Advance the trace by one mutation-selection step under its own model and policy.

    Mutation extends every particle once and multiplies its weight by the
    incremental weight, re-exponentiated against the step's largest.  The
    products still shrink at every step without selection, so a largest
    weight whose square is subnormal is brought into [0.5, 1) by an exact
    power of two, as are all the others.  Selection fires when the mutated
    weights' squared CV crosses the policy's threshold.
    """
    model, policy = trace.model, trace.policy
    k = trace.step + 1
    if k > model.horizon:
        raise ValueError("no observations left: the trace already reached the horizon")
    rec = trace.current
    paths, log_inc = step_kernel(model, k, trace.proposal_kind).mutate(rec.paths, rng)
    shift = float(np.max(log_inc))
    if not np.isfinite(shift):
        raise ValueError("weight collapse: non-finite incremental weights")
    mutated = rec.weights * np.exp(log_inc - shift)
    top = float(np.max(mutated))
    if top * top < TINY:  # the weights shrink at every step without selection
        mutated, top = unit_scaled(mutated, top)
    total = float(np.sum(mutated))
    if not (total > 0.0 and np.isfinite(total)):
        raise ValueError("weight collapse: all mutated weights vanished")
    cv2 = cv2_of_weights(mutated)
    ess = ess_of_weights(mutated)
    max_frac = top / total
    fire = policy.should_fire(cv2)
    if fire:
        m_out = policy.output_size(paths.shape[0])
        paths = paths[resample_indices(mutated, m_out, policy.scheme, rng)]
        new_weights = np.ones(m_out)
    else:
        new_weights = mutated
    trace.records.append(
        StepRecord(
            step=k,
            ess=ess,
            cv2=cv2,
            resampled=fire,
            max_weight_fraction=max_frac,
            paths=paths,
            weights=new_weights,
        )
    )
    return trace


def smc_run(
    model: DiscreteHMM | LinearGaussianSSM,
    proposal_kind: str,
    policy: ResamplingPolicy,
    m: int,
    seed,
    horizon: int | None = None,
) -> SmcTrace:
    """Run the filter from step 1 through ``horizon`` (default: all steps)."""
    rng = as_rng(seed)
    horizon = model.horizon if horizon is None else horizon
    if not 1 <= horizon <= model.horizon:
        raise ValueError(f"horizon outside 1..{model.horizon}")
    trace = smc_init(model, m, proposal_kind, policy, rng)
    for _ in range(2, horizon + 1):
        smc_step(trace, rng)
    return trace
