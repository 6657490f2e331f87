"""Acceptance suite: every shipped guarantee at its contractual tolerance.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``).  All stochastic criteria run
under pinned seeds; seed-robustness was checked over ten master seeds
during development.
"""

import json
import math
import time

import numpy as np
import pytest

from smclimits import (
    DiscreteHMM,
    ExperimentConfig,
    ResamplingPolicy,
    TerminalFunction,
    WeightedSample,
    clt_check,
    counterexample_run,
    lln_check,
    run_recursion,
    run_replicates,
    summarize_counterexample,
)
from smclimits.cli import DEFAULT_MASTER_SEED, default_config, main
from smclimits.verify import (
    limit_weight_suite,
    unbiasedness_suite,
    variance_ordering_suite,
)
from path_space_reference import exact_joint_smoothing
from test_variance_oracle import brute_force_sigma2_step2

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SEED = DEFAULT_MASTER_SEED
IND0 = TerminalFunction(name="ind0", kind="indicator", state=0)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def bench(bench_model):
    return bench_model


def _bench_policy(kappa2: float) -> ResamplingPolicy:
    if math.isinf(kappa2):
        return ResamplingPolicy(trigger="never")
    return ResamplingPolicy(trigger="cv", kappa2=kappa2)


def test_criterion_01_resampling_unbiasedness():
    start = time.time()
    suite = unbiasedness_suite(seed=SEED, n_random=200, max_m=4, max_m_out=4, tolerance=1e-12)
    elapsed = time.time() - start
    _report(
        1,
        suite["passed"] and elapsed < 5.0,
        f"enumeration vs estimate over {suite['n_checks']} checks, "
        f"max error {suite['max_abs_error']:.2e} (tol 1e-12), {elapsed:.1f}s",
    )


def test_criterion_02_residual_variance_ordering():
    start = time.time()
    suite = variance_ordering_suite(seed=SEED + 1, n_cases=100, max_m=6, slack=1e-12)
    elapsed = time.time() - start
    _report(
        2,
        suite["passed"] and elapsed < 1.0,
        f"residual <= multinomial on {suite['n_checks']} instances, "
        f"worst gap {suite['worst_gap']:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_ess_cv_identities():
    start = time.time()
    rng = np.random.default_rng(np.random.SeedSequence(SEED + 2))
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 40))
        w = np.exp(rng.uniform(-8.0, 8.0, size=m))
        ws = WeightedSample(w)
        worst = max(worst, abs(ws.ess() * (1.0 + ws.cv2()) - m) / m)
    extremes_ok = True
    for m in (2, 3, 17):
        extremes_ok &= WeightedSample(np.ones(m)).ess() == float(m)
        degenerate = np.zeros(m)
        degenerate[m // 2] = 1.0
        extremes_ok &= WeightedSample(degenerate).ess() == 1.0
    elapsed = time.time() - start
    _report(
        3,
        worst <= 1e-10 and extremes_ok and elapsed < 1.0,
        f"identity within {worst:.2e} relative on 1000 weight vectors, "
        f"extremes exact: {extremes_ok}, {elapsed:.1f}s",
    )


def test_criterion_04_residual_limit_weight():
    start = time.time()
    suite = limit_weight_suite(seed=SEED + 3, m=100_000, ratios=(0.5, 1.0, 2.0),
                               rel_tolerance=0.02)
    elapsed = time.time() - start
    detail = ", ".join(
        f"ratio {r['ratio']}: {r['rel_error']:.4f}" for r in suite["results"]
    )
    _report(4, suite["passed"] and elapsed < 30.0, f"rel errors [{detail}] (tol 2%), {elapsed:.1f}s")


def test_criterion_05_clt_reproduction(bench):
    start = time.time()
    all_ok = True
    details = []
    f_table = IND0.table_for(bench)
    for kappa2 in (0.0, 1.0, math.inf):
        config = ExperimentConfig(
            model=bench,
            proposal_kind="prior",
            policy=_bench_policy(kappa2),
            horizon=4,
            functions=(IND0,),
            particle_counts=(4096,),
            replicates=500,
            seed=SEED,
        )
        report = run_replicates(config)
        sigma2 = run_recursion(bench, "prior", config.policy, horizon=4).sigma2(f_table)
        check = clt_check(report, sigma2, ratio_band=(0.8, 1.25), min_p=0.01)
        all_ok &= check.passed
        details.append(f"kappa2={kappa2}: ratio {check.var_ratio:.3f}, ks_p {check.ks_p:.3f}")
    elapsed = time.time() - start
    _report(5, all_ok and elapsed < 180.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_06_lln_rate(bench):
    start = time.time()
    config = ExperimentConfig(
        model=bench,
        proposal_kind="prior",
        policy=_bench_policy(0.0),
        horizon=4,
        functions=(IND0,),
        particle_counts=(2**8, 2**10, 2**12, 2**14),
        replicates=200,
        seed=SEED,
    )
    check = lln_check(run_replicates(config), band=(-0.6, -0.4))
    elapsed = time.time() - start
    _report(
        6,
        check.passed and elapsed < 180.0,
        f"log2-RMSE slope {check.slope:.3f} in [-0.6,-0.4]: {check.slope_in_band}, "
        f"max-weight fraction decreasing: {check.max_fraction_decreasing}, {elapsed:.1f}s",
    )


def test_criterion_07_adaptive_trigger_limit(bench):
    start = time.time()
    config = ExperimentConfig(
        model=bench,
        proposal_kind="prior",
        policy=_bench_policy(1.0),
        horizon=5,
        functions=(IND0,),
        particle_counts=(2**14,),
        replicates=8,
        seed=SEED,
    )
    report = run_replicates(config)
    state = run_recursion(bench, "prior", config.policy, horizon=5)
    oracle_limits, oracle_eps = [], []
    for k in range(2, 6):
        oracle_limits.append(state.steps[k - 1].cv2_limit)
        oracle_eps.append(state.steps[k - 1].epsilon)
    empirical = report.aggregates[0]["mean_cv2_by_step"][1:]
    rel_errors = [abs(e - o) / o for e, o in zip(empirical, oracle_limits)]
    oracle_pattern = "".join(str(e) for e in oracle_eps)
    patterns = report.aggregates[0]["decision_patterns"]
    decisions_match = set(patterns) == {oracle_pattern}
    elapsed = time.time() - start
    _report(
        7,
        max(rel_errors) <= 0.05 and decisions_match and elapsed < 60.0,
        f"per-step CV2 rel errors {[f'{e:.3f}' for e in rel_errors]} (tol 5%), "
        f"decisions {sorted(patterns)} vs oracle {oracle_pattern}, {elapsed:.1f}s",
    )


def test_criterion_08_residual_counterexample():
    start = time.time()
    result = counterexample_run(100_000, 400, SEED)
    stats = summarize_counterexample(result.values)
    elapsed = time.time() - start
    _report(
        8,
        stats["mass_at_low_atom"] >= 0.40
        and stats["mass_at_high_atom"] >= 0.40
        and stats["max_window_mass"] < 0.95
        and elapsed < 30.0,
        f"atom masses {stats['mass_at_low_atom']:.3f}/{stats['mass_at_high_atom']:.3f} "
        f"(need >= 0.40), max 0.1-window {stats['max_window_mass']:.3f} (< 0.95), {elapsed:.1f}s",
    )


def test_criterion_09_oracle_self_consistency(bench):
    start = time.time()
    psi_ok = True
    state = run_recursion(bench, "prior", _bench_policy(1.0), horizon=5)
    for k in range(2, 6):
        law = exact_joint_smoothing(bench, k)
        psi_ok &= bool(np.max(np.abs(state.steps[k - 1].psi - law.marginal(k))) <= 1e-12)
    k2_model = DiscreteHMM(
        [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0], [2.0, 0.5]]
    )
    f = np.array([1.0, 0.0])
    step2 = run_recursion(k2_model, "prior", _bench_policy(0.0), horizon=2)
    brute = brute_force_sigma2_step2(k2_model, 0.0, f)
    sigma_err = abs(step2.sigma2(f) - brute)
    elapsed = time.time() - start
    _report(
        9,
        psi_ok and sigma_err <= 1e-12 and elapsed < 5.0,
        f"smoothing laws agree to 1e-12 for k<=5: {psi_ok}, "
        f"step-2 variance vs brute force: {sigma_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_worker_determinism(tmp_path):
    start = time.time()
    cfg = default_config()
    cfg["experiment"].update({"m_list": [16, 32, 64, 256], "replicates": 10, "horizon": 3})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        main(["verify-lln", "--config", str(cfg_path), "--out-dir", str(out),
              "--workers", str(workers)])
        outputs[workers] = (
            (out / "lln_rows.csv").read_bytes(),
            (out / "lln_summary.json").read_bytes(),
        )
    identical = outputs[1] == outputs[8]
    elapsed = time.time() - start
    _report(10, identical and elapsed < 60.0, f"CSV/JSON byte-identical at workers 1 vs 8: {identical}, {elapsed:.1f}s")
