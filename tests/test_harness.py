"""Tests for the replication harness, KS machinery, and the counterexample."""

import dataclasses
import hashlib
import json
import logging
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from smclimits import (
    DiscreteHMM,
    ExperimentConfig,
    ResamplingPolicy,
    TerminalFunction,
    clt_check,
    counterexample_run,
    ks_test,
    lln_check,
    normal_cdf,
    run_replicates,
    run_recursion,
    summarize_counterexample,
)
from smclimits import cli, harness
from smclimits.harness import aggregate_rows, kolmogorov_sf, require_lln_grid
from smclimits.state_space import MAX_POPULATION, smc_run


def _normal_quantile(p):
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalCdf:
    def test_against_scipy(self):
        for x in np.linspace(-6, 6, 101):
            assert normal_cdf(float(x)) == pytest.approx(
                float(scipy.stats.norm.cdf(x)), abs=1e-9
            )


class TestKolmogorovSf:
    def test_against_scipy(self):
        for t in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0):
            assert kolmogorov_sf(t) == pytest.approx(
                float(scipy.special.kolmogorov(t)), abs=1e-10
            )

    def test_limits(self):
        assert kolmogorov_sf(1e-6) == pytest.approx(1.0, abs=1e-6)
        assert kolmogorov_sf(5.0) == pytest.approx(0.0, abs=1e-10)


class TestKsTest:
    def test_quantile_construction(self):
        n = 40
        values = [_normal_quantile((i - 0.5) / n) for i in range(1, n + 1)]
        d, _ = ks_test(values)
        assert d == pytest.approx(0.5 / n, abs=1e-9)

    def test_point_mass_at_zero(self):
        d, p = ks_test([0.0] * 25)
        assert d == pytest.approx(0.5, abs=1e-12)
        assert p < 1e-5

    def test_brute_force_sup_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 60))
            values = rng.normal(size=n) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1)
            d, _ = ks_test(values)
            # direct sup over sample points, left and right limits
            sup = 0.0
            sv = np.sort(values)
            for x in sv:
                cdf = normal_cdf(float(x))
                right = np.sum(sv <= x) / n
                left = np.sum(sv < x) / n
                sup = max(sup, abs(right - cdf), abs(left - cdf))
            assert d == pytest.approx(sup, abs=1e-12)

    def test_needs_ten_values(self):
        with pytest.raises(ValueError, match="at least 10"):
            ks_test([0.1] * 9)

    def test_standard_normal_sample_accepted(self):
        values = np.random.default_rng(42).standard_normal(400)
        _, p = ks_test(values)
        assert p > 0.01


@pytest.fixture(scope="module")
def tiny_config(bench_model):
    return ExperimentConfig(
        model=bench_model,
        proposal_kind="prior",
        policy=ResamplingPolicy(trigger="cv", kappa2=1.0),
        horizon=4,
        functions=(TerminalFunction(name="ind0", kind="indicator", state=0),),
        particle_counts=(32, 64),
        replicates=6,
        seed=2024,
    )


def _config_hash(config: ExperimentConfig) -> str:
    """The hash a report carries: sha256 of the sorted-key JSON of the CLI's config echo."""
    return hashlib.sha256(json.dumps(cli.config_echo(config), sort_keys=True).encode()).hexdigest()


class TestRunReplicates:
    def test_single_row(self, bench_model):
        config = ExperimentConfig(
            model=bench_model,
            proposal_kind="prior",
            policy=ResamplingPolicy(trigger="always"),
            horizon=2,
            functions=(TerminalFunction(name="ind0", kind="indicator", state=0),),
            particle_counts=(1,),
            replicates=1,
            seed=0,
        )
        report = run_replicates(config)
        assert len(report.rows) == 1
        assert report.rows[0]["m"] == 1
        assert report.rows[0]["replicate"] == 0

    def test_row_and_aggregate_counts(self, tiny_config):
        report = run_replicates(tiny_config)
        assert len(report.rows) == 12
        assert [a["m"] for a in report.aggregates] == [32, 64]
        assert all(a["replicates"] == 6 for a in report.aggregates)

    def test_bit_reproducible(self, tiny_config):
        a = run_replicates(tiny_config)
        b = run_replicates(tiny_config)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )
        assert a.csv_lines() == b.csv_lines()

    def test_workers_do_not_change_output(self, tiny_config):
        a = run_replicates(tiny_config, workers=1)
        b = run_replicates(tiny_config, workers=4)
        assert a.csv_lines() == b.csv_lines()
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_pool_failure_falls_back_serially_with_a_warning(
        self, tiny_config, monkeypatch, caplog
    ):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no subprocess support")

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", NoPool)
        with caplog.at_level(logging.WARNING, logger="smclimits"):
            report = run_replicates(tiny_config, workers=2)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "serially" in caplog.records[0].getMessage()
        assert report.csv_lines() == run_replicates(tiny_config).csv_lines()

    def test_pool_size_bounded_by_tasks_and_cores(self, tiny_config, monkeypatch):
        # a pool forks all its processes up front; record the size asked for
        # instead of starting any
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        serial = run_replicates(tiny_config).csv_lines()
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        for workers in (100_000, 9, 2, 1, 0):
            assert run_replicates(tiny_config, workers=workers).csv_lines() == serial
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        run_replicates(tiny_config, workers=100_000)
        # 12 tasks on 8 cores; one worker or fewer runs in this process
        assert sizes == [8, 8, 2, 1]

    def test_validation_of_functions_and_population(self, bench_model):
        def config(fn, policy=ResamplingPolicy(), counts=(64,)):
            return ExperimentConfig(
                model=bench_model, proposal_kind="prior", policy=policy, horizon=5,
                functions=(fn,), particle_counts=counts, replicates=2, seed=0,
            )

        with pytest.raises(ValueError, match="outside 0..1"):
            config(TerminalFunction(name="s", kind="indicator", state=-1))
        with pytest.raises(ValueError, match="table length"):
            config(TerminalFunction(name="t", kind="table", values=(1.0,)))
        for constant in (
            TerminalFunction(name="c", kind="affine", a=0.0, b=3.0),
            TerminalFunction(name="c", kind="table", values=(0.3, 0.3)),
        ):
            with pytest.raises(ValueError, match="constant"):
                config(constant)
        fn = TerminalFunction(name="ind0")
        shrinking = ResamplingPolicy(trigger="cv", kappa2=1.0, ratio=0.25)
        with pytest.raises(ValueError, match="output size"):
            config(fn, shrinking, counts=(64,))
        config(fn, shrinking, counts=(256,))  # 256 -> 64 -> 16 -> 4 -> 1
        config(fn, ResamplingPolicy(trigger="never", ratio=0.25), counts=(1,))

    def test_repeated_function_names_rejected(self, bench_model):
        # truths, rows and CSV columns are keyed by name: a repeat used to drop a function
        functions = (TerminalFunction("f", state=0), TerminalFunction("f", state=1))
        with pytest.raises(ValueError, match="test function names must be distinct"):
            ExperimentConfig(
                model=bench_model, proposal_kind="prior", policy=ResamplingPolicy(), horizon=5,
                functions=functions, particle_counts=(64,), replicates=2, seed=0,
            )

    def test_population_growth_bounded(self, bench_model):
        def config(counts, policy):
            return ExperimentConfig(
                model=bench_model, proposal_kind="prior", policy=policy, horizon=5,
                functions=(TerminalFunction(name="ind0"),), particle_counts=counts,
                replicates=2, seed=0,
            )

        doubling = ResamplingPolicy(trigger="cv", kappa2=1.0, ratio=2.0)
        config((16, MAX_POPULATION // 16), doubling)  # four doublings reach the cap
        with pytest.raises(ValueError, match="population growth"):
            config((16, MAX_POPULATION // 16 + 1), doubling)
        with pytest.raises(ValueError, match="population growth"):
            config((16,), ResamplingPolicy(trigger="always", ratio=math.inf))
        config((MAX_POPULATION,), ResamplingPolicy(trigger="never", ratio=2.0))

    def test_aggregates_are_exchangeable(self, tiny_config):
        report = run_replicates(tiny_config)
        rng = np.random.default_rng(1)
        shuffled = list(report.rows)
        rng.shuffle(shuffled)
        redone = aggregate_rows(shuffled, tiny_config.functions)
        for a, b in zip(report.aggregates, redone):
            assert a["m"] == b["m"]
            assert a["rmse[ind0]"] == pytest.approx(b["rmse[ind0]"], rel=1e-12)
            assert a["decision_patterns"] == b["decision_patterns"]

    def test_config_hash_tracks_config(self, tiny_config, bench_model):
        other = ExperimentConfig(
            model=bench_model,
            proposal_kind=tiny_config.proposal_kind,
            policy=tiny_config.policy,
            horizon=tiny_config.horizon,
            functions=tiny_config.functions,
            particle_counts=tiny_config.particle_counts,
            replicates=tiny_config.replicates,
            seed=tiny_config.seed + 1,
        )
        assert _config_hash(tiny_config) != _config_hash(other)
        same = ExperimentConfig(**{
            "model": bench_model,
            "proposal_kind": tiny_config.proposal_kind,
            "policy": tiny_config.policy,
            "horizon": tiny_config.horizon,
            "functions": tiny_config.functions,
            "particle_counts": tiny_config.particle_counts,
            "replicates": tiny_config.replicates,
            "seed": tiny_config.seed,
        })
        assert _config_hash(tiny_config) == _config_hash(same)

    def test_flat_likelihood_estimates_are_unbiased(self):
        model = DiscreteHMM([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], [[1.0, 1.0]] * 3)
        config = ExperimentConfig(
            model=model,
            proposal_kind="prior",
            policy=ResamplingPolicy(trigger="never"),
            horizon=3,
            functions=(TerminalFunction(name="ind0", kind="indicator", state=0),),
            particle_counts=(512,),
            replicates=200,
            seed=99,
        )
        report = run_replicates(config)
        errs = report.scaled_errors(512, "ind0")
        assert abs(float(np.mean(errs))) < 4 * float(np.std(errs)) / math.sqrt(len(errs))

    def test_validation(self, bench_model):
        fn = (TerminalFunction(name="ind0", kind="indicator", state=0),)
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentConfig(
                model=bench_model, proposal_kind="prior",
                policy=ResamplingPolicy(), horizon=2, functions=fn,
                particle_counts=(64, 64), replicates=2, seed=0,
            )
        with pytest.raises(ValueError, match="observation record"):
            ExperimentConfig(
                model=bench_model, proposal_kind="prior",
                policy=ResamplingPolicy(), horizon=9, functions=fn,
                particle_counts=(64,), replicates=2, seed=0,
            )


class TestJudgeableFunctions:
    """A function is accepted exactly when its asymptotic variance is positive."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the oracle's near-threshold note
    def test_accepted_exactly_when_sigma2_is_positive(self):
        # sparse models leave states the filter cannot reach; 0/1 tables are
        # often constant on the states it can
        rng = np.random.default_rng(2105)
        policies = (ResamplingPolicy(trigger="always"), ResamplingPolicy(trigger="never"),
                    ResamplingPolicy(trigger="cv", kappa2=0.5))
        outcomes = []
        for _ in range(120):
            n, horizon = int(rng.integers(2, 6)), int(rng.integers(1, 7))
            initial = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5)
            initial[rng.integers(n)] += 0.5
            transition = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.5)
            transition[np.arange(n), rng.integers(0, n, size=n)] += 0.5
            model = DiscreteHMM(
                initial / initial.sum(),
                transition / transition.sum(axis=1, keepdims=True),
                rng.uniform(0.3, 3.0, size=(horizon, n)),
            )
            states = [run_recursion(model, kind, policy)
                      for kind in ("prior", "optimal", "resample_move") for policy in policies]
            for _ in range(3):
                fn = TerminalFunction(name="f", kind="table",
                                      values=tuple(rng.integers(0, 2, size=n).tolist()))
                try:
                    ExperimentConfig(model=model, proposal_kind="prior", policy=policies[0],
                                     horizon=horizon, functions=(fn,), particle_counts=(64,),
                                     replicates=2, seed=0)
                    accepted = True
                except ValueError as exc:
                    assert f"reaches at horizon {horizon}" in str(exc)
                    accepted = False
                sigma2 = [state.sigma2(fn.table_for(model)) for state in states]
                if accepted:
                    assert min(sigma2) > 1e-12
                else:
                    assert max(abs(s) for s in sigma2) <= 1e-12
                outcomes.append(accepted)
        assert 0.2 < np.mean(outcomes) < 0.8


# Two affine functions on the linear-Gaussian model, the second with its
# slope given as a JSON integer; neither workload's a = 1, b = 0 pins them.
_AFFINE_CONFIG = """{
  "model": {"type": "linear_gaussian", "obs_seed": 3,
            "parameters": {"ar_coeff": 0.8, "state_std": 1.0, "obs_std": 0.7}},
  "proposal": "prior",
  "policy": {"scheme": "residual", "trigger": "cv", "kappa2": 1.0},
  "experiment": {"horizon": 6, "m_list": [64, 256], "replicates": 3, "seed": 11,
                 "functions": [{"name": "g", "kind": "affine", "a": 0.37, "b": -1.25},
                               {"name": "h", "kind": "affine", "a": 2, "b": -1.25}]}
}"""


class TestAffineEstimates:
    def test_row_estimates_are_the_weighted_mean_of_a_x_plus_b(self):
        doc = json.loads(_AFFINE_CONFIG)
        experiment = cli.build_experiment(doc)
        report = run_replicates(experiment)
        assert len(report.rows) == 6
        for row, line in zip(report.rows, report.csv_lines()[1:], strict=True):
            trace = smc_run(
                experiment.model, experiment.proposal_kind, experiment.policy, row["m"],
                np.random.SeedSequence([experiment.seed, row["m"], row["replicate"]]),
                horizon=experiment.horizon,
            )
            w, x = trace.current.weights, trace.current.paths[:, -1]
            for fn in doc["experiment"]["functions"]:
                a, b = fn["a"], fn["b"]
                expected = float(np.sum(w * (a * x + b))) / float(np.sum(w))
                assert row["estimates"][fn["name"]] == expected
            assert line.split(",")[2] == repr(row["estimates"]["g"])


class TestCsvLines:
    def test_every_function_has_its_columns(self):
        cfg = cli.default_config()
        cfg["model"]["parameters"] = {
            "initial": [0.2, 0.5, 0.3],
            "transition": [[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]],
        }
        cfg["experiment"].update(
            horizon=3, m_list=[16, 32], replicates=3,
            functions=[{"name": f"ind{s}", "kind": "indicator", "state": s} for s in (0, 1)],
        )
        report = run_replicates(cli.build_experiment(cfg))
        header, *lines = report.csv_lines()
        assert header == (
            "m,replicate,estimate,scaled_error,final_ess,n_resamples,"
            "estimate[ind1],scaled_error[ind1]"
        )
        assert len(lines) == len(report.rows) == 6
        for row, line in zip(report.rows, lines, strict=True):
            est, err = row["estimates"], row["scaled_errors"]
            assert line.split(",") == [
                str(row["m"]), str(row["replicate"]), repr(est["ind0"]), repr(err["ind0"]),
                repr(row["final_ess"]), str(row["n_resamples"]),
                repr(est["ind1"]), repr(err["ind1"]),
            ]


class TestLlnCheck:
    def test_grid_requirements(self, tiny_config):
        report = run_replicates(tiny_config)
        with pytest.raises(ValueError, match="4 particle counts"):
            lln_check(report)

    def test_judges_exactly_one_function(self, tiny_config):
        # the fit judges one function: a second one would go unjudged
        two = dataclasses.replace(tiny_config, functions=(
            TerminalFunction(name="ind0", kind="indicator", state=0),
            TerminalFunction(name="ind1", kind="indicator", state=1),
        ))
        with pytest.raises(ValueError, match="one function, and 2 were given"):
            lln_check(run_replicates(two))

    def test_grid_rule(self):
        require_lln_grid((256, 16, 64, 32))
        for counts in ((16, 32, 64), (16, 32, 64, 128)):
            with pytest.raises(ValueError, match="factor of 16"):
                require_lln_grid(counts)

    def test_constant_wrong_estimates_fail(self, bench_model):
        # negative control: overwrite every estimate with a fixed wrong value
        config = ExperimentConfig(
            model=bench_model,
            proposal_kind="prior",
            policy=ResamplingPolicy(trigger="cv", kappa2=0.0),
            horizon=3,
            functions=(TerminalFunction(name="ind0", kind="indicator", state=0),),
            particle_counts=(16, 64, 256, 1024),
            replicates=5,
            seed=5,
        )
        report = run_replicates(config)
        for row in report.rows:
            row["scaled_errors"]["ind0"] = math.sqrt(row["m"]) * 0.25
        # the check reads the aggregates, so they are rebuilt from the edited rows
        report = dataclasses.replace(
            report, aggregates=aggregate_rows(report.rows, config.functions)
        )
        check = lln_check(report)
        assert not check.slope_in_band
        assert not check.passed


@pytest.fixture(scope="module")
def clt_report_and_sigma(bench_model):
    config = ExperimentConfig(
        model=bench_model,
        proposal_kind="prior",
        policy=ResamplingPolicy(trigger="cv", kappa2=1.0),
        horizon=3,
        functions=(TerminalFunction(name="ind0", kind="indicator", state=0),),
        particle_counts=(1024,),
        replicates=250,
        seed=31,
    )
    report = run_replicates(config)
    state = run_recursion(bench_model, "prior", config.policy, horizon=3)
    return report, state.sigma2(np.array([1.0, 0.0]))


class TestCltCheck:
    def test_passes_with_oracle_variance(self, clt_report_and_sigma):
        report, sigma2 = clt_report_and_sigma
        check = clt_check(report, sigma2, 1024, "ind0")
        assert check.passed

    def test_corrupted_oracle_fails(self, clt_report_and_sigma):
        # negative control: a four-fold variance corruption must be detected
        report, sigma2 = clt_report_and_sigma
        assert not clt_check(report, 4.0 * sigma2, 1024, "ind0").passed

    def test_needs_replicates(self, tiny_config):
        report = run_replicates(tiny_config)
        with pytest.raises(ValueError, match="200"):
            clt_check(report, 1.0, 32, "ind0")

    def test_zero_variance_paths(self, clt_report_and_sigma):
        # a function with sigma^2 = 0 never reaches the check: the config refuses it
        report, _ = clt_report_and_sigma
        for sigma2 in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive oracle variance"):
                clt_check(report, sigma2, 1024, "ind0")

    def test_reads_the_aggregate_variance(self, clt_report_and_sigma):
        report, sigma2 = clt_report_and_sigma
        errors = report.scaled_errors(1024, "ind0")
        expected = float(np.var(errors, ddof=1)) / sigma2
        assert clt_check(report, sigma2, 1024, "ind0").var_ratio == expected
        edited = dataclasses.replace(
            report, aggregates=[dict(report.aggregates[0], **{"var_scaled_error[ind0]": sigma2})]
        )
        assert clt_check(edited, sigma2, 1024, "ind0").var_ratio == 1.0


class TestCounterexample:
    def test_two_atoms_emerge(self):
        result = counterexample_run(20_000, 200, 7)
        stats = summarize_counterexample(result.values)
        assert stats["mass_at_low_atom"] >= 0.3
        assert stats["mass_at_high_atom"] >= 0.3
        assert stats["max_window_mass"] < 0.9

    def test_average_weight_tends_to_one(self):
        result = counterexample_run(20_000, 100, 13)
        assert float(np.mean(result.mean_weights)) == pytest.approx(1.0, abs=0.005)

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, 0.5, 0.5, 0.6, 0.7, 0.7],  # ties, and 0.6 sits on 0.5's right edge
            [0.0, 0.1, 0.2, 0.3, 0.4],  # every window edge lands on a value
            [1.0],
            [0.25, 0.25, 0.25],
            [0.6, 0.65, 0.7, 1.3, 1.33, 1.34, 1.35, 1.4, 1.45],
        ],
    )
    def test_window_mass_matches_the_loop(self, values):
        ordered = np.sort(np.array(values))
        best = 0
        for i, v in enumerate(ordered):
            j = int(np.searchsorted(ordered, v + 0.1, side="right"))
            best = max(best, j - i)
        stats = summarize_counterexample(np.array(values[::-1]))
        assert stats["max_window_mass"] == best / ordered.size

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 10, 99, 150, 199, 1000, 100_000])
    def test_floors_are_the_old_formula(self, m):
        # the copies come from the residual allocation; the reference is
        # the floor formula the command computed on its own before
        replicates, seed = 30, 17
        expected = np.empty(replicates)
        for r in range(replicates):
            rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
            draws = np.where(rng.random(m) < 2.0 / 3.0, 0.5, 2.0)
            total = float(np.sum(draws))
            expected[r] = float(np.dot(np.floor(m * draws / total), draws)) / m
        np.testing.assert_array_equal(counterexample_run(m, replicates, seed).values, expected)

    def test_deterministic(self):
        a = counterexample_run(5_000, 20, 3)
        b = counterexample_run(5_000, 20, 3)
        assert np.array_equal(a.values, b.values)
