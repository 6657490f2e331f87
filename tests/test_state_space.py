"""Tests for state-space models, proposal kernels, smoothing oracles, the filter."""

import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from smclimits import (
    DiscreteHMM,
    LinearGaussianSSM,
    ResamplingPolicy,
    filter_marginal,
    smc_run,
    smc_step,
    step_kernel,
)
from smclimits.state_space import PROPOSAL_KINDS, as_rng
from smclimits.weighted_sample import cv2_of_weights

from path_space_reference import exact_joint_smoothing, forward_backward_marginals, run_with_paths


@pytest.fixture
def small_model():
    return DiscreteHMM(
        [0.5, 0.5],
        [[0.9, 0.1], [0.2, 0.8]],
        [[1.0, 1.0], [2.0, 0.5], [1.5, 0.7], [0.9, 2.1]],
    )


def _terminal_estimate(trace, table):
    """The filter's estimate of the terminal-state function with this table."""
    return trace.terminal_estimate(np.asarray(table)[trace.current.paths[:, -1]])


class TestModelValidation:
    def test_zero_likelihood_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 0.0]])

    def test_nonstochastic_row_rejected(self):
        with pytest.raises(ValueError, match="probability vectors"):
            DiscreteHMM([0.5, 0.5], [[0.9, 0.2], [0.2, 0.8]], [[1.0, 1.0]])

    def test_initial_must_normalize(self):
        with pytest.raises(ValueError, match="probability vector"):
            DiscreteHMM([0.6, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]])

    def test_lgssm_requires_stationary(self):
        with pytest.raises(ValueError, match="stationary"):
            LinearGaussianSSM(1.1, 1.0, 1.0, [0.0])

    @pytest.mark.parametrize(
        "initial, transition, likelihoods",
        [
            # NaN passes a tolerance test on the row sums: abs(NaN - 1) > tol is False
            ([math.nan, 1.0], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]]),
            ([0.5, 0.5], [[0.9, 0.1], [math.nan, 1.0]], [[1.0, 1.0]]),
            ([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, math.inf]]),
        ],
    )
    def test_non_finite_entries_rejected(self, initial, transition, likelihoods):
        with pytest.raises(ValueError, match="finite"):
            DiscreteHMM(initial, transition, likelihoods)

    @pytest.mark.parametrize(
        "coeffs", [(math.nan, 1.0, 1.0), (0.5, math.inf, 1.0), (0.5, 1.0, math.inf)]
    )
    def test_lgssm_non_finite_parameters_rejected(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            LinearGaussianSSM(*coeffs, [0.0])


def _offspring(kernel, parent, count: int, seed: int = 0):
    """The carried columns and the weights W of ``count`` copies of one parent path."""
    carried, log_w = kernel.mutate(np.tile(np.asarray(parent), (count, 1)), as_rng(seed))
    return carried, np.exp(log_w)


class TestPriorProposal:
    def test_support_matches_transition_rows(self, small_model):
        kernel = step_kernel(small_model, 2, "prior")
        assert np.array_equal(kernel.prop, small_model.transition)

    def test_constant_likelihood_gives_equal_weights(self):
        flat = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0], [0.7, 0.7]]
        )
        _, log_w = step_kernel(flat, 2, "prior").mutate(np.array([[0], [1], [0]]), as_rng(0))
        weights = np.exp(log_w)
        assert np.allclose(weights, 0.7)
        assert cv2_of_weights(weights) == 0.0


class TestOptimalProposal:
    def test_weight_constant_over_offspring(self, small_model):
        kernel = step_kernel(small_model, 2, "optimal")
        for x in (0, 1):
            carried, weights = _offspring(kernel, [x], 1000, seed=x)
            assert set(carried[:, -1].tolist()) == {0, 1}
            assert np.all(weights == weights[0])

    def test_hand_computed_values(self):
        model = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0], [2.0, 0.5]]
        )
        kernel = step_kernel(model, 2, "optimal")
        _, weights = _offspring(kernel, [0], 100)
        assert weights == pytest.approx(np.full(100, 1.85), abs=1e-15)
        assert kernel.prop[0, 0] == pytest.approx(1.8 / 1.85, abs=1e-12)
        assert kernel.prop[0, 1] == pytest.approx(0.05 / 1.85, abs=1e-12)

    def test_flat_likelihood_reduces_to_prior(self, small_model):
        flat = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0], [1.0, 1.0]]
        )
        opt = step_kernel(flat, 2, "optimal")
        pri = step_kernel(flat, 2, "prior")
        assert opt.prop == pytest.approx(pri.prop, abs=1e-12)
        assert opt.w == pytest.approx(np.ones((2, 1)), abs=1e-15)


class TestResampleMoveProposal:
    def test_uniform_target_accepts_everything(self):
        # transition row x likelihood constant => target conditional uniform
        # => the move matrix is the uniform proposal itself
        model = DiscreteHMM(
            [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        )
        mats = step_kernel(model, 3, "resample_move").moves
        assert np.allclose(mats, 0.5, atol=1e-15)

    def test_move_matrix_leaves_target_invariant(self, small_model):
        mats = step_kernel(small_model, 3, "resample_move").moves
        q = small_model.transition
        g = small_model.likelihoods[1]
        for e in range(2):
            target = q[e] * g
            target = target / target.sum()
            assert np.allclose(target @ mats[e], target, atol=1e-12)

    def test_moves_match_the_per_state_loop(self):
        # the broadcast build against one matrix per conditioning state e,
        # on sparse models whose targets have null points
        for seed in range(300):
            n = 2 + seed % 28
            kernel = step_kernel(_random_hmm(seed, n), 3, "resample_move")
            reference = np.empty((n, n, n))
            for e, t in enumerate(kernel._move_target):
                accept = np.ones((n, n))
                pos = t > 0.0
                accept[pos, :] = np.minimum(1.0, t[None, :] / t[pos, None])
                p = accept / n
                np.fill_diagonal(p, 0.0)
                np.fill_diagonal(p, 1.0 - p.sum(axis=1))
                reference[e] = p
            np.testing.assert_array_equal(kernel.moves, reference)

    def test_short_path_degenerates_with_flag(self, small_model):
        # at step 2 there is no coordinate before the parent's to condition
        # the move on: the kernel makes no move and extends as the prior does
        kernel = step_kernel(small_model, 2, "resample_move")
        assert kernel.has_move is False
        assert kernel.moves is None
        pri = step_kernel(small_model, 2, "prior")
        assert np.array_equal(kernel.prop, pri.prop) and np.array_equal(kernel.w, pri.w)
        parents = np.array([[0], [1], [1], [0]])
        carried, log_w = kernel.mutate(parents, as_rng(3))
        pri_carried, pri_log_w = pri.mutate(parents, as_rng(3))
        assert np.array_equal(carried[:, 0], parents[:, 0])
        assert np.array_equal(carried[:, 1:], pri_carried)
        assert np.array_equal(log_w, pri_log_w)


def _random_hmm(seed: int, n: int) -> DiscreteHMM:
    """A random n-state model over 4 steps; some transitions are impossible."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    q = rng.dirichlet(np.full(n, 0.5), size=n)
    zero = rng.random((n, n)) < 0.25
    zero[np.arange(n), rng.integers(0, n, size=n)] = False
    q[zero] = 0.0
    q = q / q.sum(axis=1, keepdims=True)
    return DiscreteHMM(rng.dirichlet(np.ones(n)), q, rng.uniform(0.3, 3.0, size=(4, n)))


def _independent_target_expectation(model, k, kind, x, f):
    """The target kernel applied to f, written with bare loops.

    The one-step target always extends the path through the transition and
    tilts by the likelihood; the path move composes that with its own
    transition matrix on the last coordinate.
    """
    q = model.transition
    g = model.likelihoods[k - 1]
    n = model.n_states
    if kind in ("prior", "optimal") or k == 2:
        return sum(q[x[-1], j] * g[j] * f(x + (j,)) for j in range(n))
    mats = step_kernel(model, k, "resample_move").moves
    total = 0.0
    for m in range(n):
        for j in range(n):
            total += mats[x[-2], x[-1], m] * q[m, j] * g[j] * f(x[:-1] + (m, j))
    return total


def _chi2_statistic(counts: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """Pearson's statistic and its degrees of freedom, pooling cells expected below 5.

    An outcome of probability 0 must never be drawn.
    """
    assert not np.any(counts[expected == 0.0])
    small = expected < 5.0
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] < 5.0:  # the pooled cell is still small: fold it into the largest
        largest = np.argmax(exp)
        obs[largest] += obs[-1]
        exp[largest] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    return float(np.sum((obs - exp) ** 2 / exp)), exp.size - 1


class TestStepKernel:
    """The sampler and the oracle's factors read one kernel."""

    @settings(max_examples=30, deadline=None)
    @given(
        model_seed=st.integers(0, 2**32 - 1),
        draw_seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3]),
        kind=st.sampled_from(PROPOSAL_KINDS),
        k=st.sampled_from([2, 3, 4]),
    )
    def test_sampler_and_oracle_agree(self, model_seed, draw_seed, n, kind, k):
        model = _random_hmm(model_seed, n)
        kernel = step_kernel(model, k, kind)
        # between carried coordinates R W^p = Q @ D: each row of R sums to 1,
        # and R(x, W h) is the target kernel applied to h
        q, d = kernel.factors(0)
        assert q @ d @ np.ones(d.shape[1]) == pytest.approx(1.0, abs=1e-12)
        q, d = kernel.factors(1)
        parent_dims, child_dims = (1 if size == n else 2 for size in (q.shape[0], d.shape[1]))
        h = np.random.default_rng(draw_seed).normal(size=(n,) * child_dims)
        rw = (q @ d @ h.ravel()).reshape((n,) * parent_dims)
        parents = list(itertools.product(range(n), repeat=k - 1))
        for x in parents:
            expected = _independent_target_expectation(
                model, k, kind, x, lambda y: h[y[-child_dims:]]
            )
            assert rw[x[-parent_dims:]] == pytest.approx(expected, abs=1e-12)
        # the sampler's draws, on a pinned seed, follow R: the new coordinate
        # from prop, and behind the path move the moved coordinate from moves
        draws = 4000
        carried, _ = kernel.mutate(np.repeat(np.array(parents), draws, axis=0), as_rng(0))
        statistic, dof = 0.0, 0
        for i, x in enumerate(parents):
            outcomes = carried[i * draws : (i + 1) * draws]
            if kernel.has_move:
                law = kernel.moves[x[-2], x[-1]][:, None] * kernel.prop
                cells = outcomes[:, 0] * n + outcomes[:, 1]
            else:
                law = kernel.prop[x[-1]]
                cells = outcomes[:, -1]
                assert np.all(outcomes[:, :-1] == x[-1])  # the parent's coordinate stays
            counts = np.bincount(cells, minlength=law.size)
            part, part_dof = _chi2_statistic(counts, draws * law.ravel())
            statistic, dof = statistic + part, dof + part_dof
        if dof:
            assert scipy.stats.chi2.sf(statistic, dof) > 1e-6

    def test_moves_built_on_first_read(self, small_model):
        kernel = step_kernel(small_model, 3, "resample_move")
        kernel.mutate(np.array([[0, 1], [1, 1]]), as_rng(0))
        assert "moves" not in vars(kernel)
        assert kernel.moves is kernel.moves
        assert step_kernel(small_model, 2, "resample_move").moves is None


# sha256 of the final full paths and weights bytes after smc_run at m=64,
# seed 21, cv trigger at kappa2 = 0.3: any change to a kernel's draw order
# or arithmetic shows here
HMM_DRAWS = {
    "prior": "335e4e5f9a9b9ff64745477f938d1cbd8184d745e5f99495b94dd35f3fcfff06",
    "optimal": "2561ee320795c35154967e912dcc8cbdbb38c71aeeadb15e94f1210529a68a86",
    "resample_move": "8302d7532707ffa4fd28048e6d6697b3ffdd7052808affaf87e8b112d1a85486",
}
LG_DRAWS = {
    "prior": "7cf7798c94ee6a5ed3c86bebc0f78687583c24bccf57ebb09cc4a2a7b215ae55",
    "optimal": "87288b22e72e8e67e0365b3286b75e84a9abd4ba5c2ca31d1e42a5aff5ecfa59",
}


def _draw_digest(model, kind: str) -> str:
    policy = ResamplingPolicy(trigger="cv", kappa2=0.3)
    trace, paths = run_with_paths(model, kind, policy, 64, 21)
    return hashlib.sha256(paths[-1].tobytes() + trace.current.weights.tobytes()).hexdigest()


class TestPinnedDraws:
    @pytest.mark.parametrize("kind", sorted(HMM_DRAWS))
    def test_discrete(self, small_model, kind):
        assert _draw_digest(small_model, kind) == HMM_DRAWS[kind]

    @pytest.mark.parametrize("kind", sorted(LG_DRAWS))
    def test_linear_gaussian(self, kind):
        model = LinearGaussianSSM(0.8, 1.0, 0.7, [0.4, -0.2, 1.1, 0.6])
        assert _draw_digest(model, kind) == LG_DRAWS[kind]


# sha256 over every step k of the full (m, k) paths and the weights after
# smc_run at m=64, seed 21, keyed model/kind/policy; taken when each record
# still stored its full paths, so run_with_paths must rebuild them bit for bit
STEP_MODELS = {
    "hmm2": lambda: DiscreteHMM(
        [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
        [[1.0, 1.0], [2.0, 0.5], [1.5, 0.7], [0.9, 2.1]],
    ),
    "hmm3": lambda: _random_hmm(7, 3),
    "lg": lambda: LinearGaussianSSM(0.8, 1.0, 0.7, [0.4, -0.2, 1.1, 0.6]),
}
STEP_POLICIES = {
    "cv": ResamplingPolicy(trigger="cv", kappa2=0.3),
    "residual": ResamplingPolicy(scheme="residual", trigger="always"),
    "never": ResamplingPolicy(trigger="never"),
    "grow": ResamplingPolicy(trigger="always", ratio=1.5),
}
STEP_DRAWS = {
    "hmm2/prior/cv": "eb4a02c6dd6a2ecd0a5768a8de1485326e5361208db17322cce80fb72b58048e",
    "hmm2/prior/residual": "dd3bfefc3164ac3eb6436ac659938d8246687871cb60542d5a26c960acfccde0",
    "hmm2/prior/never": "ec0e4f985d61a02939c84ca5715661e54efa9378afe39b3be04de85ad2d937c7",
    "hmm2/prior/grow": "d96dcb6f2777318331694b8cc267ed8fb4f6eaa0c8c99dc0d3af25096f343d33",
    "hmm2/optimal/cv": "3e8d5e89b4154609bc3536aa2b5fc5798c7242bdf47d9dafa82556f4b018b892",
    "hmm2/optimal/residual": "b50fcc5718287df896df84a2057388b8784f470007d455651e961d547070d85c",
    "hmm2/optimal/never": "3e8d5e89b4154609bc3536aa2b5fc5798c7242bdf47d9dafa82556f4b018b892",
    "hmm2/optimal/grow": "13598d31fff3bb719fce3e6bb7faf32674c79e4b22851660acec2858040cf53b",
    "hmm2/resample_move/cv": "dadfe222221d44daa18bb1bb581639d2b0be4a46f5178c9573828915f12b3bb7",
    "hmm2/resample_move/residual": "870c309fdd3da0b0a876a37c630863b1acfe47c6d7d723398f217a91bf04e0aa",
    "hmm2/resample_move/never": "3efd4a6bab86cad6a2f72ada1b23a85ccfd2477872ae3269eab121f167f18c70",
    "hmm2/resample_move/grow": "e4e8ba29dea67b01078e5c07b2311e38b1091ba58f5675f3952d10f460a05a95",
    "hmm3/prior/cv": "0e02d6b82a85c31a54e4c84048fa294e850513b95c6bec49d88c6685c81642ad",
    "hmm3/prior/residual": "c083080d21957338f8e5d065449e6704faacd86ca77c81cf473e7ed6e0913d8a",
    "hmm3/prior/never": "0e02d6b82a85c31a54e4c84048fa294e850513b95c6bec49d88c6685c81642ad",
    "hmm3/prior/grow": "3a9820a8c67f1c1f7db9738d789bcb68eeaea28f29bf7a075f803c065cda44b3",
    "hmm3/optimal/cv": "01f231bbf8ad933441d0588b4e47278696dfd7a415e66396b444465657f61519",
    "hmm3/optimal/residual": "bfcd6591eb2362e4c6fa752e05406009bb3bdfb1ecc1923567e8399ecc7a9859",
    "hmm3/optimal/never": "01f231bbf8ad933441d0588b4e47278696dfd7a415e66396b444465657f61519",
    "hmm3/optimal/grow": "19e01cde46fdfe81b6784a1d88819f55a75680e408b04132de134ded3d328608",
    "hmm3/resample_move/cv": "94a3b40a4605df221f8c755878424818f4bbd820c952b859b35e9e86edef537b",
    "hmm3/resample_move/residual": "3a7fdcf7b01e6db2073b16422806e91a976230189a03a55cfe2515d83d9f3ce9",
    "hmm3/resample_move/never": "94a3b40a4605df221f8c755878424818f4bbd820c952b859b35e9e86edef537b",
    "hmm3/resample_move/grow": "4e69152c68900570ce7e9d2f22195da89ed0dab5c799fe879678ddddc75976dd",
    "lg/prior/cv": "849b4988d57b79c2a5e5ec7392d20b11f7b459d092e4034fe34c745b37b02a14",
    "lg/prior/residual": "d8ab342d3264e3dd250810210a7c251b779eb11d193f4ea58da5be93841c6d6b",
    "lg/prior/never": "77e91f027723ae0d7ed1bff932c729d3b3929d31f6111eb91263d32355e7ead2",
    "lg/prior/grow": "ee51fcc3b35bb010e67387c41a56241d92c37a9d199f8eb6aea410fd0358cdf1",
    "lg/optimal/cv": "037fdff6e34e570c8ab118638c999a502af90a9740d525112338c8bba93bab85",
    "lg/optimal/residual": "45f5f0d5c440f30eed8ee8b7e685da57162cacc810925bc50219b411d668a58e",
    "lg/optimal/never": "037fdff6e34e570c8ab118638c999a502af90a9740d525112338c8bba93bab85",
    "lg/optimal/grow": "8bd000de44bb84c364728d055527b4e81749692b4d163ead29092e115502f034",
}


class TestPathStorage:
    @pytest.mark.parametrize("case", sorted(STEP_DRAWS))
    def test_paths_at_rebuilds_every_step(self, case):
        model_name, kind, policy_name = case.split("/")
        model, policy = STEP_MODELS[model_name](), STEP_POLICIES[policy_name]
        trace, full = run_with_paths(model, kind, policy, 64, 21)
        digest = hashlib.sha256()
        for rec, paths in zip(trace.records, full, strict=True):
            assert paths.shape == (rec.weights.size, rec.step)
            digest.update(paths.tobytes() + rec.weights.tobytes())
        assert digest.hexdigest() == STEP_DRAWS[case]

    @pytest.mark.parametrize("kind", PROPOSAL_KINDS + ("lg_prior",))
    def test_state_is_linear_in_the_horizon(self, kind):
        m, horizon = 128, 50
        if kind == "lg_prior":
            model = LinearGaussianSSM(0.8, 1.0, 0.7, np.linspace(-1.0, 1.0, horizon))
            kind = "prior"
        else:
            model = DiscreteHMM(
                [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[2.0, 0.5], [0.6, 1.7]] * (horizon // 2)
            )
        trace = smc_run(model, kind, ResamplingPolicy(trigger="cv", kappa2=0.3), m, 4)
        carried = 2 if kind == "resample_move" else 1
        itemsize = trace.current.paths.itemsize
        assert sum(r.paths.nbytes for r in trace.records) <= m * horizon * carried * itemsize

    def test_terminal_estimate_of_values_at_the_particles(self):
        model = LinearGaussianSSM(0.8, 1.0, 0.7, [0.4, -0.2, 1.1, 0.6])
        trace = smc_run(model, "prior", ResamplingPolicy(trigger="cv", kappa2=0.3), 64, 21)
        rec = trace.current
        x = rec.paths[:, -1]
        est = trace.terminal_estimate(2.0 * x + 1.0)
        vals = np.array([2.0 * v + 1.0 for v in x])
        assert est == float(np.sum(rec.weights * vals)) / float(np.sum(rec.weights))
        rows = trace.terminal_estimate(np.vstack([2.0 * x + 1.0, x]))
        assert rows.tolist() == [est, trace.terminal_estimate(x)]
        with pytest.raises(ValueError, match="f_values must have shape"):
            trace.terminal_estimate(x[:-1])


class TestExactSmoothing:
    def test_first_step_is_first_filter(self, small_model):
        law = exact_joint_smoothing(small_model, 1)
        first = small_model.initial * small_model.likelihoods[0]
        assert np.allclose(law.probs, first / first.sum(), atol=1e-15)

    def test_flat_likelihood_gives_chain_law(self):
        model = DiscreteHMM(
            [0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 3
        )
        law = exact_joint_smoothing(model, 3)
        for path in itertools.product(range(2), repeat=3):
            direct = model.initial[path[0]]
            for a, b in zip(path, path[1:]):
                direct *= model.transition[a, b]
            assert law.probs[path] == pytest.approx(direct, abs=1e-14)

    def test_marginals_match_forward_backward(self, small_model):
        for k in (1, 2, 3, 4):
            law = exact_joint_smoothing(small_model, k)
            fb = forward_backward_marginals(small_model, k)
            for j in range(1, k + 1):
                assert np.allclose(law.marginal(j), fb[j - 1], atol=1e-12)

    def test_cap(self):
        # 2^13 = 8192 paths, past the 4096-path enumeration cap
        model = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 2.0]] * 13)
        with pytest.raises(ValueError, match="path space too large"):
            exact_joint_smoothing(model, 13)


class TestFilterMarginal:
    """The library's filter law against the path-space and alpha/beta references."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), horizon=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_both_references(self, n, horizon, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        model = DiscreteHMM(
            rng.dirichlet(np.ones(n)),
            rng.dirichlet(np.ones(n), size=n),
            rng.uniform(0.3, 3.0, size=(horizon, n)),
        )
        for k in range(1, horizon + 1):
            law = filter_marginal(model, k)
            fb = forward_backward_marginals(model, k)[-1]
            assert np.allclose(law, fb, rtol=1e-12, atol=0.0)
            joint = exact_joint_smoothing(model, k).marginal(k)
            assert np.allclose(law, joint, rtol=1e-12, atol=0.0)

    def test_long_horizon_past_the_cap(self):
        model = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 2.0]] * 1000)
        law = filter_marginal(model, 1000)
        assert np.allclose(law, forward_backward_marginals(model, 1000)[-1], rtol=1e-12, atol=0.0)
        assert float(np.sum(law)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k", [0, 5])
    def test_step_outside_the_horizon_rejected(self, small_model, k):
        with pytest.raises(ValueError, match="outside 1..4"):
            filter_marginal(small_model, k)


class TestFilter:
    def test_path_lengths_grow_with_step(self, small_model):
        policy = ResamplingPolicy(trigger="always")
        trace, full = run_with_paths(small_model, "prior", policy, 50, 3)
        for rec, paths in zip(trace.records, full, strict=True):
            assert paths.shape == (50, rec.step)

    def test_never_policy_weights_are_likelihood_products(self, small_model):
        # sequential importance sampling: the weight of a path equals the
        # product of its incremental likelihoods, up to one common rescale
        policy = ResamplingPolicy(trigger="never")
        trace, full = run_with_paths(small_model, "prior", policy, 40, 11)
        rec = trace.current
        g = small_model.likelihoods
        expected = np.array([
            np.prod([g[j, s] for j, s in enumerate(path) if j > 0])
            for path in full[-1]
        ])
        ratio = rec.weights / expected
        assert np.allclose(ratio, ratio[0], rtol=1e-12)

    def test_always_policy_unit_weights(self, small_model):
        trace = smc_run(small_model, "prior", ResamplingPolicy(trigger="always"), 30, 5)
        for rec in trace.records:
            assert np.array_equal(rec.weights, np.ones(30))
            assert rec.resampled or rec.step == 1

    def test_constant_likelihood_never_triggers(self):
        model = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[2.0, 2.0]] * 4
        )
        policy = ResamplingPolicy(trigger="cv", kappa2=0.5)
        trace = smc_run(model, "prior", policy, 25, 7)
        assert trace.decisions() == [False, False, False]
        for rec in trace.records[1:]:
            assert rec.cv2 == 0.0

    def test_recorded_cv2_matches_weight_diagnostic(self, small_model):
        # with the never policy the stored weights are the mutated weights
        trace = smc_run(small_model, "prior", ResamplingPolicy(trigger="never"), 60, 13)
        for rec in trace.records[1:]:
            assert rec.cv2 == cv2_of_weights(rec.weights)

    def test_deterministic_given_seed(self, small_model):
        policy = ResamplingPolicy(trigger="cv", kappa2=0.3)
        a, a_paths = run_with_paths(small_model, "resample_move", policy, 64, 21)
        b, b_paths = run_with_paths(small_model, "resample_move", policy, 64, 21)
        assert np.array_equal(a_paths[-1], b_paths[-1])
        assert np.array_equal(a.current.weights, b.current.weights)
        assert a.decisions() == b.decisions()

    def test_horizon_one_matches_iid_sampling(self, small_model):
        model = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[2.0, 0.5]]
        )
        first = model.initial * model.likelihoods[0]
        first /= first.sum()
        f = np.array([1.0, 0.0])
        truth = first[0]
        m, reps = 512, 300
        ests = []
        for r in range(reps):
            trace = smc_run(model, "prior", ResamplingPolicy(trigger="never"), m,
                            np.random.SeedSequence([1, r]), horizon=1)
            ests.append(_terminal_estimate(trace, f))
        ests = np.array(ests)
        var_expected = truth * (1 - truth) / m
        assert abs(ests.mean() - truth) < 4 * math.sqrt(var_expected / reps)
        assert np.var(ests, ddof=1) == pytest.approx(var_expected, rel=0.35)

    def test_stationary_flat_likelihood_recovers_stationary_law(self):
        q = np.array([[0.9, 0.1], [0.2, 0.8]])
        # stationary distribution from the leading left eigenvector
        evals, evecs = np.linalg.eig(q.T)
        pi = np.real(evecs[:, np.argmax(np.real(evals))])
        pi = pi / pi.sum()
        model = DiscreteHMM(pi, q, [[1.0, 1.0]] * 5)
        trace = smc_run(model, "prior", ResamplingPolicy(trigger="always"), 60_000, 17)
        est = _terminal_estimate(trace, np.array([1.0, 0.0]))
        assert est == pytest.approx(pi[0], abs=0.02)

    def test_estimates_converge_to_exact_smoothing(self, small_model):
        truth = float(filter_marginal(small_model, 4) @ np.array([1.0, 0.0]))
        errs = []
        for m in (256, 4096):
            ests = [
                _terminal_estimate(
                    smc_run(small_model, "optimal", ResamplingPolicy(trigger="always"), m,
                            np.random.SeedSequence([3, m, r])),
                    [1.0, 0.0],
                )
                for r in range(60)
            ]
            errs.append(np.sqrt(np.mean((np.array(ests) - truth) ** 2)))
        assert errs[1] < errs[0] / 2.0

    def test_step_beyond_horizon_rejected(self, small_model):
        trace = smc_run(small_model, "prior", ResamplingPolicy(trigger="always"), 8, 1)
        with pytest.raises(ValueError, match="horizon"):
            smc_step(trace, as_rng(0))

    def test_residual_scheme_inside_filter(self, small_model):
        policy = ResamplingPolicy(scheme="residual", trigger="always")
        trace = smc_run(small_model, "prior", policy, 40, 9)
        assert all(rec.resampled for rec in trace.records[1:])
        assert np.array_equal(trace.current.weights, np.ones(40))

    def test_paths_at_materializes_paths(self, small_model):
        policy = ResamplingPolicy(trigger="never")
        trace, full = run_with_paths(small_model, "prior", policy, 10, 2)
        paths = full[2]
        assert paths.shape == (10, 3)
        # without selection each particle keeps its own history
        for rec in trace.records[:3]:
            assert np.array_equal(paths[:, rec.step - 1], rec.paths[:, -1])


class TestLinearGaussian:
    def test_kalman_matches_filter_estimates(self):
        model = LinearGaussianSSM(0.8, 1.0, 0.7, [0.4, -0.2, 1.1, 0.6])
        means, variances = model.kalman_filter()
        trace = smc_run(model, "optimal", ResamplingPolicy(trigger="cv", kappa2=1.0),
                        60_000, 31)
        est = trace.terminal_estimate(trace.current.paths[:, -1])
        assert est == pytest.approx(means[-1], abs=4.5 * math.sqrt(variances[-1] / 60_000) + 0.01)

    def test_prior_and_optimal_agree(self):
        model = LinearGaussianSSM(0.8, 1.0, 0.7, [0.4, -0.2, 1.1, 0.6])
        est = {}
        for kind in ("prior", "optimal"):
            ests = []
            for r in range(40):
                trace = smc_run(model, kind, ResamplingPolicy(trigger="always"), 4096,
                                np.random.SeedSequence([8, r]))
                ests.append(trace.terminal_estimate(trace.current.paths[:, -1]))
            est[kind] = np.mean(ests)
        assert est["prior"] == pytest.approx(est["optimal"], abs=0.03)

    def test_move_not_available(self):
        model = LinearGaussianSSM(0.8, 1.0, 0.7, [0.4, -0.2])
        with pytest.raises(ValueError, match="discrete"):
            smc_run(model, "resample_move", ResamplingPolicy(trigger="always"), 16, 0)

    def test_weight_collapse_signalled(self):
        # a non-finite observation poisons every incremental weight; the
        # filter reports the collapse instead of propagating garbage
        model = LinearGaussianSSM(0.8, 1.0, 0.7, [0.4, float("nan")])
        with pytest.raises(ValueError, match="weight collapse"):
            smc_run(model, "prior", ResamplingPolicy(trigger="never"), 16, 0)

    @pytest.mark.parametrize("kind", ["prior", "optimal"])
    def test_kernel_pairs_target_next_filter_law(self, kind):
        # one mutation of an exact first-filter sample, weighted by W, targets
        # the second filter law; the Kalman recursion provides the exact mean
        model = LinearGaussianSSM(0.8, 1.0, 0.7, [0.4, -0.2])
        means, variances = model.kalman_filter()
        rng = np.random.default_rng(np.random.SeedSequence(55))
        v0 = model.stationary_var
        tau2 = model.obs_std**2
        post_var = v0 * tau2 / (v0 + tau2)
        post_mean = v0 * model.observations[0] / (v0 + tau2)
        m = 60_000
        first = post_mean + math.sqrt(post_var) * rng.standard_normal(m)
        carried, log_w = step_kernel(model, 2, kind).mutate(first[:, None], rng)
        weights = np.exp(log_w)
        est = float(np.sum(weights * carried[:, -1])) / float(np.sum(weights))
        assert est == pytest.approx(means[1], abs=5 * math.sqrt(variances[1] / m) + 0.01)

    def test_optimal_pair_weight_depends_on_parent_only(self):
        model = LinearGaussianSSM(0.8, 1.0, 0.7, [0.4, -0.2])
        kernel = step_kernel(model, 2, "optimal")
        for parent in (0.3, -1.2):
            carried, weights = _offspring(kernel, [parent], 50)
            assert np.ptp(carried[:, -1]) > 0.0
            assert np.all(weights == weights[0])
