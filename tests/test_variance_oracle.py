"""Tests for the exact asymptotic-variance recursion.

The key oracle here is an independently coded brute-force evaluator of the
one-step variance composition, written with bare loops over paths; the
recursion must reproduce it exactly.
"""

import math
import warnings

import numpy as np
import pytest

from smclimits import (
    DiscreteHMM,
    ResamplingPolicy,
    LinearGaussianSSM,
    exact_joint_smoothing,
    recursion_init,
    recursion_step,
    run_recursion,
    smc_run,
    step_kernel,
)
from smclimits.variance_oracle import _mutation_totals


# several fixtures sit legitimately near the trigger boundary; the warning
# machinery itself is exercised in TestBoundaryWarning
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture
def k2_model():
    """The two-step fixture: flat first observation, informative second."""
    return DiscreteHMM(
        [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0], [2.0, 0.5]]
    )


# flat observations on which gamma~(1) rounds a few ulps below 1 at step 4,
# where the filter still selects under "always" and "cv" at kappa2 = 0
ROUNDING_MODEL = DiscreteHMM([0.1, 0.9], [[0.05, 0.95], [0.3, 0.7]], [[1.0, 1.0]] * 4)


def cv(kappa2):
    """The adaptive policy at threshold kappa2 (math.inf never fires)."""
    return ResamplingPolicy(trigger="cv", kappa2=kappa2)


def unclamped_cv2_limit(state, kind):
    """gamma~(1) - 1 of the next mutation, before recursion_step clamps it at 0."""
    kernel = step_kernel(state.model, state.k + 1, kind)
    return _mutation_totals(state, kernel)[1] - 1.0


def brute_force_sigma2_step2(model, kappa2, f_table):
    """sigma_2^2 for the prior kernel assembled from the definitional formula.

    Bare loops only.  The mutation fluctuation term acts on the centered
    function (a constant must produce zero variance).
    """
    n = model.n_states
    chi, q, g = model.initial, model.transition, model.likelihoods
    phi1 = np.array([chi[x] * g[0][x] for x in range(n)])
    phi1 = phi1 / sum(phi1)

    # joint law over two-step paths and its normalizer
    norm = sum(phi1[x] * sum(q[x][j] * g[1][j] for j in range(n)) for x in range(n))
    psi2 = {
        (x, j): phi1[x] * q[x][j] * g[1][j] / norm
        for x in range(n)
        for j in range(n)
    }
    c = sum(psi2[p] * f_table[p[1]] for p in psi2)
    fbar = {p: f_table[p[1]] - c for p in psi2}

    # trigger statistic: second moment of the mutated weights
    gamma_tilde = sum(
        phi1[x] * sum(q[x][j] * g[1][j] ** 2 for j in range(n)) for x in range(n)
    ) / norm**2
    eps = 1 if gamma_tilde >= 1.0 + kappa2 else 0

    var_psi2 = sum(psi2[p] * fbar[p] ** 2 for p in psi2)

    # carried term: the parent-level functional L(f - c), with the step-1
    # variance functional Var_phi1
    l_fbar = [sum(q[x][j] * g[1][j] * fbar[(x, j)] for j in range(n)) for x in range(n)]
    mean_l = sum(phi1[x] * l_fbar[x] for x in range(n))
    sigma1_of_l = sum(phi1[x] * (l_fbar[x] - mean_l) ** 2 for x in range(n))

    # mutation fluctuation: conditional variance of W * (f - c) under the draw
    fluct = 0.0
    for x in range(n):
        first = sum(q[x][j] * g[1][j] * fbar[(x, j)] for j in range(n))
        second = sum(q[x][j] * (g[1][j] * fbar[(x, j)]) ** 2 for j in range(n))
        fluct += phi1[x] * (second - first**2)

    return eps * var_psi2 + (sigma1_of_l + fluct) / norm**2


class TestInit:
    def test_constant_function_has_zero_variance(self, k2_model):
        state = recursion_init(k2_model, "prior", cv(1.0))
        assert state.sigma2(np.array([3.0, 3.0])) == pytest.approx(0.0, abs=1e-15)

    def test_indicator_variance(self):
        model = DiscreteHMM(
            [0.6, 0.4], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]]
        )
        state = recursion_init(model, "prior", cv(1.0))
        assert state.sigma2(np.array([1.0, 0.0])) == pytest.approx(0.24, abs=1e-15)

    def test_gamma_equals_psi(self, k2_model):
        state = recursion_init(k2_model, "prior", cv(1.0))
        assert np.array_equal(state.gamma, state.psi)


class TestStepTwoBruteForce:
    @pytest.mark.parametrize("kappa2", [0.0, 1.0, math.inf])
    @pytest.mark.parametrize("f0,f1", [(1.0, 0.0), (0.0, 1.0), (2.0, -1.0)])
    def test_recursion_matches_brute_force(self, k2_model, kappa2, f0, f1):
        f = np.array([f0, f1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = recursion_step(recursion_init(k2_model, "prior", cv(kappa2)))
        assert state.sigma2(f) == pytest.approx(
            brute_force_sigma2_step2(k2_model, kappa2, f), abs=1e-12
        )


class TestRecursionInvariants:
    @pytest.mark.parametrize("kind", ["prior", "optimal", "resample_move"])
    @pytest.mark.parametrize("kappa2", [0.0, 1.0, math.inf])
    def test_psi_matches_exact_smoothing(self, bench_model, kind, kappa2):
        state = recursion_init(bench_model, kind, cv(kappa2))
        for k in range(2, 6):
            state = recursion_step(state)
            law = exact_joint_smoothing(bench_model, k)
            assert np.allclose(state.psi, law.probs, atol=1e-12)

    @pytest.mark.parametrize("kind", ["prior", "optimal", "resample_move"])
    def test_sigma2_nonnegative_and_kills_constants(self, bench_model, kind):
        for kappa2 in (0.0, 1.0, math.inf):
            state = run_recursion(bench_model, kind, cv(kappa2), horizon=5)
            assert state.sigma2(np.array([1.0, 0.0])) >= 0.0
            assert state.sigma2(np.array([5.0, 5.0])) == pytest.approx(0.0, abs=1e-12)

    def test_sigma2_quadratic_scaling(self, bench_model):
        state = run_recursion(bench_model, "prior", cv(1.0), horizon=4)
        f = np.array([1.0, -0.5])
        base = state.sigma2(f)
        assert state.sigma2(3.0 * f) == pytest.approx(9.0 * base, rel=1e-12)

    @pytest.mark.parametrize("kind", ["prior", "optimal", "resample_move"])
    def test_gamma_total_at_least_one(self, bench_model, kind):
        for kappa2 in (0.0, 1.0, math.inf):
            state = recursion_init(bench_model, kind, cv(kappa2))
            for _ in range(2, 6):
                state = recursion_step(state)
                assert float(np.sum(state.gamma)) >= 1.0 - 1e-12

    def test_always_resamples_at_zero_threshold_with_informative_obs(self, bench_model):
        state = run_recursion(bench_model, "prior", cv(0.0), horizon=5)
        # the trigger statistic genuinely exceeds 1 at every step here
        for s in state.steps[1:]:
            assert s.cv2_limit > 0.0
        assert state.epsilons == (1, 1, 1, 1)


class TestFlatLikelihoodReductions:
    def test_trigger_statistic_is_gamma_total(self):
        # unit weights: the second-moment measure alone drives the trigger
        model = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 4)
        state = recursion_init(model, "prior", cv(math.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(2, 5):
                expected = float(np.sum(state.gamma)) - 1.0
                assert unclamped_cv2_limit(state, "prior") == pytest.approx(
                    expected, abs=1e-14
                )
                state = recursion_step(state)

    def test_past_functions_carry_without_extra_fluctuation(self):
        # with unit weights and no resampling, a function of the first
        # coordinate keeps exactly its step-1 variance: the extension draw
        # adds nothing for past-measurable functions
        model = DiscreteHMM([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 4)
        state = recursion_init(model, "prior", cv(math.inf))
        base = state.sigma2(np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(2, 5):
                state = recursion_step(state)
                first_coord = (np.indices((2,) * state.k)[0] == 0).astype(float)
                assert state.sigma2(first_coord) == pytest.approx(base, abs=1e-13)

    def test_always_resample_cascade_closed_form(self):
        # flat observations, resample every step: the variance cascades as
        #   sigma_k^2(f) = Var_k(fbar) + E_{k-1}[Var_Q(fbar)] + sigma_{k-1}^2(Q fbar)
        # with fbar the centered function; terminal-coordinate functions stay
        # terminal-coordinate under the carried map, so the whole cascade is
        # assembled here independently on the two-state chain.  The rounding
        # model's step-4 second moment lands below 1: selection still fires
        # there, as it does in the filter.
        f = np.array([1.0, 0.0])
        horizon = 4
        models = [
            DiscreteHMM([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 4),
            ROUNDING_MODEL,
        ]
        for model in models:
            q = model.transition

            # flat likelihoods: the smoothing marginals are the chain marginals
            laws = [model.initial.copy()]
            for _ in range(horizon - 1):
                laws.append(laws[-1] @ q)

            def cascade(k, func):
                law = laws[k - 1]
                mean = float(law @ func)
                fbar = func - mean
                if k == 1:
                    return float(law @ fbar**2)
                carried = q @ fbar
                fluct = float(laws[k - 2] @ ((q @ (fbar**2)) - carried**2))
                return float(law @ fbar**2) + cascade(k - 1, carried) + fluct

            for policy in (ResamplingPolicy(trigger="always"), cv(0.0)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    state = run_recursion(model, "prior", policy, horizon=horizon)
                assert state.epsilons == (1,) * (horizon - 1)
                assert state.sigma2(f) == pytest.approx(cascade(horizon, f), abs=1e-12)


class TestEssLimit:
    def test_constant_weights_give_zero(self):
        model = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 3)
        state = recursion_init(model, "prior", cv(0.0))
        assert unclamped_cv2_limit(state, "prior") == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_on_random_models(self):
        rng = np.random.default_rng(np.random.SeedSequence(404))
        for _ in range(50):
            n = int(rng.integers(2, 4))
            chi = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n), size=n)
            g = rng.uniform(0.3, 3.0, size=(3, n))
            model = DiscreteHMM(chi, q, g)
            kind = ["prior", "optimal"][int(rng.integers(0, 2))]
            state = recursion_init(model, kind, cv(0.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for _ in range(2):
                    assert unclamped_cv2_limit(state, kind) >= -1e-12
                    state = recursion_step(state)

    def test_matches_empirical_cv2(self, bench_model):
        never = ResamplingPolicy(trigger="never")
        limit = run_recursion(bench_model, "prior", never, horizon=2).steps[-1].cv2_limit
        cv2s = [
            smc_run(bench_model, "prior", never, 4096,
                    np.random.SeedSequence([6, r]), horizon=2).current.cv2
            for r in range(20)
        ]
        assert float(np.mean(cv2s)) == pytest.approx(limit, rel=0.1)


class TestCrossKindMonteCarlo:
    """The recursion variance against replicated filter runs, per kernel kind.

    The acceptance suite pins the prior kernel; this locks in the other two.
    """

    @pytest.mark.parametrize("kind,kappa2", [
        ("optimal", 0.0),
        ("optimal", math.inf),
        ("resample_move", 0.0),
        ("resample_move", 1.0),
    ])
    def test_scaled_error_variance_ratio(self, bench_model, kind, kappa2):
        f = np.array([1.0, 0.0])
        truth = exact_joint_smoothing(bench_model, 4).expect_terminal(f)
        if math.isinf(kappa2):
            policy = ResamplingPolicy(trigger="never")
        else:
            policy = ResamplingPolicy(trigger="cv", kappa2=kappa2)
        sigma2 = run_recursion(bench_model, kind, policy, horizon=4).sigma2(f)
        m, reps = 2048, 250
        traces = (
            smc_run(bench_model, kind, policy, m, np.random.SeedSequence([23, m, r]), horizon=4)
            for r in range(reps)
        )
        errs = np.array([
            math.sqrt(m) * (trace.terminal_estimate(f[trace.current.paths[:, -1]]) - truth)
            for trace in traces
        ])
        ratio = float(np.var(errs, ddof=1)) / sigma2
        # sampling noise of the ratio is about sqrt(2/reps) = 9 percent
        assert 0.7 <= ratio <= 1.4


class TestBoundaryWarning:
    def test_flat_likelihood_at_zero_threshold_warns(self):
        model = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 2)
        with pytest.warns(RuntimeWarning, match="threshold"):
            recursion_step(recursion_init(model, "prior", cv(0.0)))

    def test_far_from_threshold_is_silent(self, bench_model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recursion_step(recursion_init(bench_model, "prior", cv(1.0)))

    @pytest.mark.parametrize("trigger", ["always", "never"])
    def test_fixed_triggers_are_silent_on_flat_steps(self, trigger):
        # no threshold to sit near: the warning belongs to the cv trigger
        state = recursion_init(ROUNDING_MODEL, "prior", ResamplingPolicy(trigger=trigger))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2, 5):
                state = recursion_step(state)


class TestPreconditions:
    """The recursion refuses a filter it does not model."""

    def test_without_selection_scheme_and_ell_do_not_matter(self, bench_model):
        never = ResamplingPolicy(scheme="residual", trigger="never", ratio=2.0)
        assert run_recursion(bench_model, "prior", never).epsilons == (0, 0, 0, 0)

    def test_continuous_model(self):
        model = LinearGaussianSSM(0.9, 1.0, 0.5, [0.1, 0.2])
        with pytest.raises(ValueError, match="discrete model"):
            recursion_init(model, "prior", cv(1.0))

    def test_path_space_checked_before_the_first_step(self, monkeypatch):
        model = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 2.0]] * 13)
        monkeypatch.setattr("smclimits.variance_oracle.recursion_step", None)
        with pytest.raises(ValueError, match="path space too large"):
            run_recursion(model, "prior", cv(1.0))


class TestVarianceTable:
    def test_rows_structure(self, bench_model):
        state = run_recursion(bench_model, "prior", cv(1.0), horizon=5)
        assert state.k == 5
        assert state.steps[0].epsilon is None
        for k, step in enumerate(state.steps[1:], start=2):
            assert step.epsilon in (0, 1)
            assert state.sigma2(np.array([1.0, 0.0]), k) >= 0.0
