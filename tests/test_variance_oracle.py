"""Tests for the exact asymptotic-variance recursion.

The key oracles here are an independently coded brute-force evaluator of
the one-step variance composition, written with bare loops over paths,
and the path-space recursion of ``path_space_reference``, which keeps
psi and gamma over all n^k paths; the recursion on the carried
coordinates must reproduce both.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smclimits import (
    DiscreteHMM,
    ResamplingPolicy,
    LinearGaussianSSM,
    filter_marginal,
    random_likelihood_table,
    run_recursion,
    smc_run,
    step_kernel,
)
from smclimits.cli import DEFAULT_OBS_SEED
from smclimits.state_space import PROPOSAL_KINDS
from smclimits.variance_oracle import MAX_ORACLE_CELLS, oracle_cells

from path_space_reference import (
    DEFAULT_PATH_CAP,
    exact_joint_smoothing,
    path_recursion_init,
    path_recursion_step,
    run_path_recursion,
    carried_marginal,
)


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


# the built-in model over 1000 steps, 2^1000 paths
BUILTIN_LONG = DiscreteHMM(
    [0.5, 0.5],
    [[0.9, 0.1], [0.2, 0.8]],
    random_likelihood_table(1000, 2, obs_seed=DEFAULT_OBS_SEED),
)


def cv(kappa2):
    """The adaptive policy at threshold kappa2 (math.inf never fires)."""
    return ResamplingPolicy(trigger="cv", kappa2=kappa2)


def epsilons(state):
    """The resampling indicators of steps 2 through k."""
    return tuple(s.epsilon for s in state.steps[1:])


def unclamped_cv2_limit(state, kind):
    """gamma~(1) - 1 of the next mutation, before the recursion clamps it at 0."""
    kernel = step_kernel(state.model, state.k + 1, kind)
    (q, d1), d2 = kernel.factors(1), kernel.factors(2)[1]
    last = state.steps[-1]
    normalizer = float(np.sum(last.psi @ q @ d1))
    return float(np.sum(last.gamma @ q @ d2)) / normalizer**2 - 1.0


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
        state = run_recursion(k2_model, "prior", cv(1.0), horizon=1)
        assert state.sigma2(np.array([3.0, 3.0])) == pytest.approx(0.0, abs=1e-15)

    def test_indicator_variance(self):
        model = DiscreteHMM(
            [0.6, 0.4], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]]
        )
        state = run_recursion(model, "prior", cv(1.0))
        assert state.sigma2(np.array([1.0, 0.0])) == pytest.approx(0.24, abs=1e-15)

    def test_gamma_equals_psi(self, k2_model):
        state = run_recursion(k2_model, "prior", cv(1.0), horizon=1)
        assert np.array_equal(state.steps[-1].gamma, state.steps[-1].psi)


class TestStepTwoBruteForce:
    @pytest.mark.parametrize("kappa2", [0.0, 1.0, math.inf])
    @pytest.mark.parametrize("f0,f1", [(1.0, 0.0), (0.0, 1.0), (2.0, -1.0)])
    def test_recursion_matches_brute_force(self, k2_model, kappa2, f0, f1):
        f = np.array([f0, f1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = run_recursion(k2_model, "prior", cv(kappa2), horizon=2)
        assert state.sigma2(f) == pytest.approx(
            brute_force_sigma2_step2(k2_model, kappa2, f), abs=1e-12
        )


class TestRecursionInvariants:
    @pytest.mark.parametrize("kind", ["prior", "optimal", "resample_move"])
    @pytest.mark.parametrize("kappa2", [0.0, 1.0, math.inf])
    def test_psi_matches_exact_smoothing(self, bench_model, kind, kappa2):
        state = run_recursion(bench_model, kind, cv(kappa2), horizon=5)
        for k in range(2, 6):
            law = exact_joint_smoothing(bench_model, k)
            psi = state.steps[k - 1].psi
            assert np.allclose(psi, carried_marginal(law.probs, psi.size), atol=1e-12)

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
            state = run_recursion(bench_model, kind, cv(kappa2), horizon=5)
            for k in range(2, 6):
                assert float(np.sum(state.steps[k - 1].gamma)) >= 1.0 - 1e-12

    def test_always_resamples_at_zero_threshold_with_informative_obs(self, bench_model):
        state = run_recursion(bench_model, "prior", cv(0.0), horizon=5)
        # the trigger statistic genuinely exceeds 1 at every step here
        for s in state.steps[1:]:
            assert s.cv2_limit > 0.0
        assert epsilons(state) == (1, 1, 1, 1)


class TestFlatLikelihoodReductions:
    def test_trigger_statistic_is_gamma_total(self):
        # unit weights: the second-moment measure alone drives the trigger
        model = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in range(1, 4):
                state = run_recursion(model, "prior", cv(math.inf), horizon=k)
                expected = float(np.sum(state.steps[-1].gamma)) - 1.0
                assert unclamped_cv2_limit(state, "prior") == pytest.approx(
                    expected, abs=1e-14
                )

    def test_past_functions_carry_without_extra_fluctuation(self):
        # with unit weights and no resampling, a function of the first
        # coordinate keeps exactly its step-1 variance: the extension draw
        # adds nothing for past-measurable functions.  A function of the
        # first coordinate is not terminal, so this runs on the path-space
        # recursion, which takes functions of the whole path.
        model = DiscreteHMM([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 4)
        state = path_recursion_init(model, "prior", cv(math.inf))
        base = state.sigma2(np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(2, 5):
                state = path_recursion_step(state)
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
                assert epsilons(state) == (1,) * (horizon - 1)
                assert state.sigma2(f) == pytest.approx(cascade(horizon, f), abs=1e-12)


class TestEssLimit:
    def test_constant_weights_give_zero(self):
        model = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 3)
        state = run_recursion(model, "prior", cv(0.0), horizon=1)
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for k in (1, 2):
                    state = run_recursion(model, kind, cv(0.0), horizon=k)
                    assert unclamped_cv2_limit(state, kind) >= -1e-12

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
        truth = float(np.dot(filter_marginal(bench_model, 4), f))
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
    def test_flat_likelihood_at_zero_threshold_is_silent(self):
        # at kappa2 = 0 every finite population selects, as the indicator does:
        # a statistic at the threshold cannot make the two disagree
        model = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = run_recursion(model, "prior", cv(0.0), horizon=2)
        assert epsilons(state) == (1,)

    def test_builtin_model_near_the_threshold_warns(self, bench_model):
        # at step 3 the limiting squared CV is 0.6952: 1.6952 is within 0.3% of 1 + 0.70
        with pytest.warns(RuntimeWarning) as record:
            run_recursion(bench_model, "prior", cv(0.70), horizon=4)
        assert len(record) == 1
        assert "within 0.3% of the threshold at 1 step(s), the first at step 3" in str(
            record[0].message)

    def test_far_from_threshold_is_silent(self, bench_model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_recursion(bench_model, "prior", cv(1.0), horizon=2)

    def test_one_warning_per_recursion(self):
        # the built-in model at H=1000 sits near the threshold at 151 steps
        with pytest.warns(RuntimeWarning) as record:
            run_recursion(BUILTIN_LONG, "prior", cv(1.0))
        assert len(record) == 1
        assert "at 151 step(s), the first at step 8" in str(record[0].message)

    @pytest.mark.parametrize("trigger", ["always", "never"])
    def test_fixed_triggers_are_silent_on_flat_steps(self, trigger):
        # no threshold to sit near: the warning belongs to the cv trigger
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_recursion(ROUNDING_MODEL, "prior", ResamplingPolicy(trigger=trigger))


class TestPreconditions:
    """The recursion refuses a filter it does not model."""

    def test_without_selection_scheme_and_ell_do_not_matter(self, bench_model):
        never = ResamplingPolicy(scheme="residual", trigger="never", ratio=2.0)
        assert epsilons(run_recursion(bench_model, "prior", never)) == (0, 0, 0, 0)

    def test_continuous_model(self):
        model = LinearGaussianSSM(0.9, 1.0, 0.5, [0.1, 0.2])
        with pytest.raises(ValueError, match="discrete model"):
            run_recursion(model, "prior", cv(1.0))

    @pytest.mark.parametrize("horizon", [0, 6])
    def test_horizon_outside_the_record(self, bench_model, horizon):
        with pytest.raises(ValueError, match=r"horizon outside 1\.\.5"):
            run_recursion(bench_model, "prior", cv(1.0), horizon=horizon)

    def test_unknown_kind_at_horizon_one(self, bench_model):
        # no step kernel is built at horizon 1, so only the up-front check sees the kind
        with pytest.raises(ValueError, match="unknown proposal kind 'bogus'"):
            run_recursion(bench_model, "bogus", cv(1.0), horizon=1)

    def test_terminal_table_required(self, bench_model):
        state = run_recursion(bench_model, "prior", cv(1.0), horizon=3)
        with pytest.raises(ValueError, match="terminal table"):
            state.sigma2(np.ones((2, 2, 2)))


class TestCellBudget:
    """The recursion holds at most oracle_cells(n, H, kind) cells and refuses more than 2^24."""

    @pytest.mark.parametrize("kind", PROPOSAL_KINDS)
    def test_cell_count_matches_the_held_arrays(self, kind):
        # each step keeps psi, gamma and its n x n form; the working
        # allowance, 8 n c + 4 n^2 for the last step's c carried cells, does
        # not grow with the horizon.  Step 1 alone works on three n x n arrays.
        n = 3
        model = DiscreteHMM([0.2, 0.3, 0.5], np.full((n, n), 1.0 / n), np.ones((6, n)))
        for horizon in range(1, 7):
            state = run_recursion(model, kind, cv(math.inf), horizon=horizon)
            stored = sum(s.psi.size + s.gamma.size + s.form.size for s in state.steps)
            c = state.steps[-1].psi.size
            working = 8 * n * c + 4 * n * n if horizon > 1 else 3 * n * n
            assert stored + working == oracle_cells(n, horizon, kind)

    @pytest.mark.parametrize("kind", PROPOSAL_KINDS)
    def test_peak_memory_within_the_count(self, kind):
        # the working arrays dominate: n^3-cell factors for the path move,
        # n x n products for the other kinds; at horizon 1, 1,500 states fit
        for n, horizon in [(24, 5), (40, 3), (1500, 1)]:
            rng = np.random.default_rng(3)
            model = DiscreteHMM(
                rng.dirichlet(np.ones(n)),
                rng.dirichlet(np.ones(n), size=n),
                rng.uniform(0.5, 2.0, size=(horizon, n)),
            )
            tracemalloc.start()
            try:
                run_recursion(model, kind, cv(math.inf))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * oracle_cells(n, horizon, kind) + 2**16

    def test_both_sides_of_the_budget(self):
        assert oracle_cells(2, 1000, "prior") == 8_048
        assert oracle_cells(2, 1000, "resample_move") == 12_076
        assert oracle_cells(1500, 1, "prior") == 9_003_000
        # the largest state counts admitted: horizon 1, 4, then 1000
        for kind, largest in [("prior", (2047, 1023, 127)), ("optimal", (2047, 1023, 127)),
                              ("resample_move", (2047, 127, 68))]:
            for horizon, n in zip((1, 4, 1000), largest):
                assert oracle_cells(n, horizon, kind) <= MAX_ORACLE_CELLS
                assert oracle_cells(n + 1, horizon, kind) > MAX_ORACLE_CELLS

    def test_budget_checked_before_the_first_step(self, monkeypatch):
        # 128 states under the path move: its n^3-cell factors exceed the budget
        n = 128
        model = DiscreteHMM(np.full(n, 1.0 / n), np.full((n, n), 1.0 / n), np.ones((4, n)))
        monkeypatch.setattr("smclimits.variance_oracle.step_kernel", None)
        with pytest.raises(ValueError, match=f"over its budget of {MAX_ORACLE_CELLS}"):
            run_recursion(model, "resample_move", cv(1.0))

    def test_exactly_at_the_budget_runs(self, bench_model, monkeypatch):
        need = oracle_cells(2, 5, "prior")
        monkeypatch.setattr("smclimits.variance_oracle.MAX_ORACLE_CELLS", need)
        assert run_recursion(bench_model, "prior", cv(1.0), horizon=5).k == 5
        monkeypatch.setattr("smclimits.variance_oracle.MAX_ORACLE_CELLS", need - 1)
        with pytest.raises(ValueError, match="budget"):
            run_recursion(bench_model, "prior", cv(1.0), horizon=5)


def _close(a, b, tol=1e-13):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class TestPathSpaceCrossCheck:
    """The recursion on carried coordinates against the path-space one, wherever paths fit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 4),
        kind=st.sampled_from(PROPOSAL_KINDS),
        policy=st.sampled_from([
            ResamplingPolicy(trigger="always"),
            ResamplingPolicy(trigger="never"),
            cv(0.0),
            cv(0.5),
        ]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_quantity_agrees(self, n, kind, policy, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        horizon = max(k for k in range(1, 13) if n**k <= DEFAULT_PATH_CAP)
        model = DiscreteHMM(
            rng.dirichlet(np.ones(n)),
            rng.dirichlet(np.ones(n), size=n),
            rng.uniform(0.3, 3.0, size=(horizon, n)),
        )
        f = rng.normal(size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = run_recursion(model, kind, policy)
            ref = run_path_recursion(model, kind, policy)
        for k in range(1, horizon + 1):
            step, ref_step = state.steps[k - 1], ref.steps[k - 1]
            assert step.epsilon == ref_step.epsilon
            if k > 1:
                assert _close(step.normalizer, ref_step.normalizer)
                assert _close(step.cv2_limit, ref_step.cv2_limit)
            assert math.isclose(state.sigma2(f, k), ref.sigma2(f, k), rel_tol=1e-13)
            expected = carried_marginal(ref_step.psi, step.psi.size)
            assert np.allclose(step.psi, expected, rtol=1e-13, atol=0.0)
            expected = carried_marginal(ref_step.gamma, step.gamma.size)
            assert np.allclose(step.gamma, expected, rtol=1e-13, atol=0.0)


class TestLongHorizon:
    """Far past the reach of path enumeration: 2^1000 paths on the built-in model."""

    @pytest.mark.parametrize("kind", PROPOSAL_KINDS)
    def test_horizon_1000(self, kind):
        state = run_recursion(BUILTIN_LONG, kind, cv(1.0))
        assert state.k == 1000
        assert math.isfinite(state.sigma2(np.array([1.0, 0.0])))

    def test_stored_cells_grow_linearly(self):
        model = DiscreteHMM([0.2, 0.3, 0.5], np.full((3, 3), 1.0 / 3.0), np.ones((8, 3)))
        state = run_recursion(model, "resample_move", cv(1.0))
        assert sum(s.psi.size for s in state.steps) == 3 + 7 * 3**2  # (x_{k-1}, x_k) from step 2


class TestVarianceTable:
    def test_rows_structure(self, bench_model):
        state = run_recursion(bench_model, "prior", cv(1.0), horizon=5)
        assert state.k == 5
        assert state.steps[0].epsilon is None
        for k, step in enumerate(state.steps[1:], start=2):
            assert step.epsilon in (0, 1)
            assert state.sigma2(np.array([1.0, 0.0]), k) >= 0.0
