"""Tests for the command-line front end: schema, exit codes, artifacts."""

import functools
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from smclimits import cli
from smclimits.cli import build_experiment, default_config, main


def _write(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _small_experiment(**overrides) -> dict:
    cfg = default_config()
    cfg["experiment"].update(
        {"m_list": [16, 32, 64, 256], "replicates": 8, "horizon": 3}, **overrides
    )
    return cfg


class TestConfigValidation:
    def test_default_config_builds(self):
        build_experiment(default_config())

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify-resampling", "--config", str(path)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = default_config()
        cfg["extra_section"] = {}
        assert main(["verify-resampling", "--config", _write(tmp_path, cfg)]) == 2

    def test_unknown_policy_key_rejected(self, tmp_path):
        cfg = default_config()
        cfg["policy"]["mystery"] = 1
        code = main(
            ["variance-table", "--config", _write(tmp_path, cfg), "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_missing_experiment_key(self, tmp_path):
        cfg = default_config()
        del cfg["experiment"]["seed"]
        assert main(["verify-resampling", "--config", _write(tmp_path, cfg)]) == 2

    def test_observations_and_seed_mutually_exclusive(self, tmp_path):
        cfg = default_config()
        cfg["model"]["observations"] = [[1.0, 1.0]] * 4
        assert main(["verify-resampling", "--config", _write(tmp_path, cfg)]) == 2

    def test_bad_probability_vector(self, tmp_path):
        cfg = default_config()
        cfg["model"]["parameters"]["initial"] = [0.7, 0.7]
        assert main(["verify-resampling", "--config", _write(tmp_path, cfg)]) == 2

    def test_residual_scheme_rejected_by_oracle_commands(self, tmp_path):
        cfg = default_config()
        cfg["policy"]["scheme"] = "residual"
        code = main(
            ["variance-table", "--config", _write(tmp_path, cfg), "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_negative_kappa2_rejected(self, tmp_path, capsys):
        cfg = default_config()
        cfg["policy"]["kappa2"] = -0.5
        assert main(["verify-resampling", "--config", _write(tmp_path, cfg)]) == 2
        assert "kappa2" in capsys.readouterr().err

    def test_kappa2_inf_accepted(self):
        cfg = default_config()
        cfg["policy"]["trigger"] = "cv"
        cfg["policy"]["kappa2"] = "inf"
        experiment = build_experiment(cfg)
        assert experiment.policy.trigger == "cv"

    def test_population_growth_up_to_the_cap_accepted(self):
        cfg = _small_experiment(horizon=12, m_list=[16, 32, 64, 2048])
        cfg["policy"].update({"ell": 2.0, "trigger": "always"})
        experiment = build_experiment(cfg)  # 2048 * 2**11 = MAX_POPULATION
        assert experiment.particle_counts[-1] == 2048

    def test_inline_observations_accepted(self):
        cfg = default_config()
        del cfg["model"]["obs_seed"]
        cfg["model"]["observations"] = [[1.0, 2.0]] * 4
        experiment = build_experiment(cfg)
        assert experiment.model.likelihoods.shape == (4, 2)


class TestOracleCompatibility:
    """The oracle commands accept only policies the variance recursion models."""

    def _ell_half(self, tmp_path, command: str, trigger: str = "cv") -> int:
        cfg = default_config()
        cfg["policy"].update({"ell": 0.5, "trigger": trigger})
        out = tmp_path / "out"
        code = main([command, "--config", _write(tmp_path, cfg), "--out-dir", str(out)])
        assert out.exists() == (code == 0)
        return code

    def test_verify_clt_rejects_ell_other_than_one(self, tmp_path):
        assert self._ell_half(tmp_path, "verify-clt") == 2

    def test_variance_table_rejects_ell_other_than_one(self, tmp_path):
        assert self._ell_half(tmp_path, "variance-table") == 2
        # without selection the output size never matters
        assert self._ell_half(tmp_path, "variance-table", trigger="never") == 0


class TestVerifyLln:
    def test_builtin_grid_rejected_before_any_replicate(self, tmp_path):
        # the built-in config has one particle count: no rate can be fitted
        out = tmp_path / "out"
        assert main(["verify-lln", "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_weights_that_shrink_for_3000_steps_end_in_a_verdict(self, tmp_path, capsys):
        # without selection the carried weights shrink at every step; their
        # squares once underflowed in the ESS, an exit-3 division by zero
        cfg = default_config()
        cfg["policy"]["trigger"] = "never"
        cfg["experiment"].update(
            {"horizon": 3000, "m_list": [64, 128, 256, 1024], "replicates": 2}
        )
        cfg_path = _write(tmp_path, cfg)
        assert main(["verify-lln", "--config", cfg_path, "--out-dir", str(tmp_path)]) in (0, 1)
        assert capsys.readouterr().out.startswith(("PASS lln slope=", "FAIL lln slope="))


_DROP = object()  # a patch value that removes its key


def _patched(patch: dict) -> dict:
    cfg = _small_experiment()
    for section, values in patch.items():
        cfg[section].update(values)
        for key in [key for key, value in values.items() if value is _DROP]:
            del cfg[section][key]
    return cfg


_LGSSM = {
    "type": "linear_gaussian",
    "parameters": {"ar_coeff": 0.9, "state_std": 1.0, "obs_std": 0.5},
}
_NAN, _INF = float("nan"), float("inf")  # written to JSON as NaN and Infinity


def _function(**entry) -> dict:
    return {"experiment": {"functions": [entry]}}


def _hmm(initial=(0.5, 0.5), transition=((0.9, 0.1), (0.2, 0.8))) -> dict:
    return {"model": {"parameters": {"initial": initial, "transition": transition}}}


def _lgssm(**changes) -> dict:
    return {"model": dict(_LGSSM, parameters=dict(_LGSSM["parameters"], **changes))}


# 300 states over 200 steps: the variance recursion would keep 200 forms of
# 300^2 cells, past its cell budget
_BIG_MODEL = {
    **_hmm(initial=[1 / 300] * 300, transition=[[1 / 300] * 300] * 300),
    "experiment": {"horizon": 200, "replicates": 200},
}


# The filter starts in state 0 and never leaves it: every function is
# constant on the states it reaches, so no verdict can judge one.
_STUCK = {
    "model": {"obs_seed": 3, "parameters": {"initial": [1.0, 0.0],
                                            "transition": [[1.0, 0.0], [0.0, 1.0]]}},
    "policy": {"trigger": "cv", "kappa2": 1.0},
}


def _stuck(fn: dict, **experiment) -> dict:
    return {**_STUCK, "experiment": {"horizon": 4, "functions": [fn], **experiment}}


_STUCK_CLT = {"m_list": [1000], "replicates": 200}
_STUCK_LLN = {"m_list": [64, 128, 256, 512, 1024], "replicates": 5}


class TestRejectedUpFront:
    """Configs the run cannot answer correctly exit 2 before any work or output."""

    @pytest.mark.parametrize(
        "command, patch, message",
        [
            pytest.param(
                "verify-clt", _BIG_MODEL, "over its budget of 16777216", id="clt-oracle-cells"
            ),
            pytest.param(
                "variance-table", _BIG_MODEL, "over its budget of 16777216",
                id="table-oracle-cells",
            ),
            pytest.param(
                "verify-lln",
                {
                    "policy": {"ell": 0.5, "trigger": "always"},
                    "experiment": {"horizon": 12, "m_list": [16, 32, 64, 128, 256]},
                },
                "output size",
                id="ell-shrinks-population",
            ),
            pytest.param(
                "verify-lln",
                {"experiment": {"functions": [{"kind": "indicator", "state": -1}]}},
                "state",
                id="indicator-state-negative",
            ),
            pytest.param(
                "verify-lln",
                {"experiment": {"functions": [{"kind": "indicator", "state": 5}]}},
                "state",
                id="indicator-state-too-large",
            ),
            pytest.param(
                "verify-lln",
                {"experiment": {"functions": [{"kind": "table", "values": [1.0, 2.0, 3.0]}]}},
                "table length",
                id="table-length",
            ),
            pytest.param("verify-lln", {"model": _LGSSM}, "affine", id="indicator-on-lgssm"),
            pytest.param(
                "verify-lln",
                {"experiment": {"functions": [{"kind": "indicator", "state": "zero"}]}},
                "integer",
                id="state-not-numeric",
            ),
            pytest.param(
                "verify-lln",
                {"experiment": {"functions": [{"kind": "affine", "a": "one"}]}},
                "number",
                id="a-not-numeric",
            ),
            pytest.param(
                "verify-lln",
                {"experiment": {"functions": [{"kind": "affine", "b": [0.0]}]}},
                "number",
                id="b-not-numeric",
            ),
            pytest.param(
                "verify-lln",
                {"experiment": {"functions": [{"name": ["x"], "kind": "indicator"}]}},
                "experiment.functions[0].name",
                id="name-not-string",
            ),
            pytest.param(
                "verify-lln",
                {
                    "experiment": {
                        "functions": [
                            {"name": "f", "kind": "indicator", "state": 0},
                            {"name": "f", "kind": "indicator", "state": 1},
                        ]
                    }
                },
                "experiment.functions[1].name",
                id="duplicate-names",
            ),
            pytest.param(
                "verify-lln",
                {
                    "policy": {"ell": 2.0, "trigger": "always"},
                    "experiment": {"horizon": 12, "m_list": [16, 32, 64, 4096]},
                },
                "population growth",
                id="ell-grows-population",
            ),
            pytest.param(
                "verify-clt",
                {"experiment": {"functions": [{"kind": "affine", "a": 0, "b": 3}],
                                "m_list": [256], "replicates": 200}},
                "constant",
                id="clt-constant-affine",
            ),
            pytest.param(
                "verify-clt",
                {"experiment": {"functions": [{"kind": "table", "values": [0.3, 0.3]}],
                                "m_list": [256], "replicates": 200}},
                "constant",
                id="clt-constant-table",
            ),
            pytest.param(
                "verify-lln",
                {"experiment": {"functions": [{"kind": "affine", "a": 0, "b": 3}]}},
                "constant",
                id="lln-constant-affine",
            ),
            pytest.param(
                "verify-lln", {"model": _LGSSM, "experiment": {
                    "functions": [{"kind": "affine", "a": 0.0, "b": 1.0}]}},
                "constant",
                id="lln-constant-on-lgssm",
            ),
            pytest.param(
                "verify-clt", _stuck({"kind": "table", "values": [0.3, 0.7]}, **_STUCK_CLT),
                "constant on the states the filter reaches at horizon 4", id="clt-stuck-table",
            ),
            pytest.param(
                "verify-clt", _stuck({"kind": "indicator", "state": 0}, **_STUCK_CLT),
                "constant on the states the filter reaches at horizon 4",
                id="clt-stuck-indicator",
            ),
            pytest.param(
                "verify-lln", _stuck({"kind": "indicator", "state": 0}, **_STUCK_LLN),
                "constant on the states the filter reaches at horizon 4",
                id="lln-stuck-indicator",
            ),
            pytest.param(
                "verify-lln", _stuck({"kind": "table", "values": [0.1, 0.7]}, **_STUCK_LLN),
                "constant on the states the filter reaches at horizon 4", id="lln-stuck-table",
            ),
            pytest.param("verify-lln", {"model": {"obs_seed": "x"}}, "integer", id="obs-seed"),
            pytest.param("verify-lln", {"model": {"obs_low": "low"}}, "number", id="obs-low"),
            pytest.param("verify-lln", {"model": {"obs_high": None}}, "number", id="obs-high"),
            pytest.param(
                "verify-lln", _function(kind="table", values=[_NAN, 1.0]),
                "values[0]: expected a finite", id="table-nan",
            ),
            pytest.param(
                "verify-lln", _function(kind="table", values=[0.5, "1.0"]),
                "values[1]: expected a finite", id="table-string",
            ),
            pytest.param(
                "verify-lln", _function(kind="table", values=[True, False]),
                "values[0]: expected a finite", id="table-bool",
            ),
            pytest.param("verify-lln", _function(kind="affine", a=_NAN), "finite", id="a-nan"),
            pytest.param(
                "verify-lln", _function(kind="affine", b=_INF), "finite", id="b-infinite"
            ),
            pytest.param("verify-lln", _hmm(initial=[_NAN, 1.0]), "finite", id="initial-nan"),
            pytest.param(
                "verify-lln", _hmm(transition=[[_NAN, 1.0], [0.2, 0.8]]), "finite",
                id="transition-nan",
            ),
            pytest.param(
                "verify-lln", {"model": {"obs_seed": _DROP, "observations": [[1.0, _INF]] * 3}},
                "finite", id="likelihood-infinite",
            ),
            pytest.param(
                "verify-lln", {"model": {"obs_high": _INF}}, "finite", id="obs-high-infinite"
            ),
            pytest.param("verify-lln", {"model": {"obs_low": _NAN}}, "finite", id="obs-low-nan"),
            pytest.param(
                "verify-lln", _lgssm(ar_coeff="0.9"), "ar_coeff: expected a finite",
                id="ar-coeff-string",
            ),
            pytest.param(
                "verify-lln", _lgssm(obs_std=_INF), "obs_std: expected a finite",
                id="obs-std-infinite",
            ),
            pytest.param(
                "verify-lln", _lgssm(state_std=_NAN), "state_std: expected a finite",
                id="state-std-nan",
            ),
            pytest.param(
                "verify-lln",
                {"model": dict(_LGSSM, obs_seed=_DROP, observations=[0.1, _NAN, 0.2])},
                "model.observations", id="lgssm-observation-nan",
            ),
            pytest.param(
                "verify-lln", {"policy": {"ell": "1.0"}}, "policy.ell: expected a finite",
                id="ell-string",
            ),
            pytest.param(
                "verify-lln", {"policy": {"ell": True}}, "policy.ell: expected a finite",
                id="ell-bool",
            ),
            pytest.param(
                "verify-lln", {"policy": {"kappa2": True}}, "policy.kappa2: expected a finite",
                id="kappa2-bool",
            ),
            pytest.param(
                "verify-lln", {"policy": {"kappa2": "1.0"}}, "policy.kappa2: expected a finite",
                id="kappa2-string",
            ),
            pytest.param(
                "verify-lln", {"policy": {"kappa2": -0.5, "trigger": "always"}},
                "kappa2 must be nonnegative", id="kappa2-negative-without-cv",
            ),
            pytest.param(
                "verify-lln", _hmm(initial=["0.5", 0.5]),
                "model.parameters.initial[0]: expected a finite", id="initial-string",
            ),
            pytest.param(
                "verify-lln", _hmm(initial=["x", 0.5]),
                "model.parameters.initial[0]: expected a finite", id="initial-not-numeric",
            ),
            pytest.param(
                "verify-lln", _hmm(initial=[[0.5], 0.5]),
                "model.parameters.initial[0]: expected a finite", id="initial-ragged",
            ),
            pytest.param(
                "verify-lln", _hmm(transition=[["0.9", 0.1], [0.2, 0.8]]),
                "model.parameters.transition[0][0]: expected a finite", id="transition-string",
            ),
            pytest.param(
                "verify-lln", _hmm(transition=[[0.9, 0.1], [1.0]]),
                "model.parameters.transition: rows of unequal length", id="transition-ragged",
            ),
            pytest.param(
                "verify-lln", {"model": {"obs_seed": _DROP, "observations": [["1.0", 2.0]] * 3}},
                "model.observations[0][0]: expected a finite", id="likelihood-string",
            ),
            pytest.param(
                "verify-lln", {"model": {"obs_seed": _DROP, "observations": [[1.0, 2.0], [1.0]]}},
                "model.observations: rows of unequal length", id="likelihoods-ragged",
            ),
        ],
    )
    def test_exit_two_and_no_output(self, tmp_path, capsys, command, patch, message):
        out = tmp_path / "out"
        cfg_path = _write(tmp_path, _patched(patch))
        assert main([command, "--config", cfg_path, "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err


class TestLongVarianceTable:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_horizon_10000_runs(self, tmp_path):
        # one lookup per row: the table is linear in the horizon
        cfg_path = _write(tmp_path, _patched({"experiment": {"horizon": 10_000}}))
        out = tmp_path / "out"
        assert main(["variance-table", "--config", cfg_path, "--out-dir", str(out)]) == 0
        rows = (out / "variance_table.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(1, 10_001))


class TestPastThePathCap:
    """Horizon 13 on the built-in model, 2^13 paths: the runs answer and write their reports."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, experiment, reports",
        [
            ("verify-lln", {"horizon": 13}, ["lln_rows.csv", "lln_summary.json"]),
            (
                "verify-clt",
                {"horizon": 13, "replicates": 200},
                ["clt_rows.csv", "clt_summary.json"],
            ),
            ("variance-table", {"horizon": 13}, ["variance_table.csv", "variance_table.json"]),
        ],
    )
    def test_horizon_13_runs(self, tmp_path, command, experiment, reports):
        out = tmp_path / "out"
        cfg_path = _write(tmp_path, _patched({"experiment": experiment}))
        assert main([command, "--config", cfg_path, "--out-dir", str(out)]) in (0, 1)
        assert sorted(path.name for path in out.iterdir()) == reports


class TestVerifyResampling:
    def test_default_passes(self, tmp_path):
        code = main(["verify-resampling", "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "resampling_report.json").read_text())
        assert report["passed"] is True
        assert {s["suite"] for s in report["suites"]} == {
            "unbiasedness",
            "variance_ordering",
            "limit_weight",
        }

    def test_zero_tolerance_fails(self, tmp_path, monkeypatch):
        strict = functools.partial(cli.unbiasedness_suite, tolerance=0.0)
        monkeypatch.setattr(cli, "unbiasedness_suite", strict)
        assert main(["verify-resampling", "--out-dir", str(tmp_path)]) == 1


class TestVarianceTable:
    def test_prints_rows_through_horizon_five(self, tmp_path, capsys):
        cfg = default_config()
        cfg["experiment"]["horizon"] = 5
        code = main(
            ["variance-table", "--config", _write(tmp_path, cfg), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("k,epsilon,normalizer,cv2_limit,gamma_total")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5"]
        payload = json.loads((tmp_path / "variance_table.json").read_text())
        assert [row["k"] for row in payload["rows"]] == [1, 2, 3, 4, 5]


class TestCounterexample:
    def test_small_run(self, tmp_path):
        cfg = default_config()
        cfg["experiment"]["m_list"] = [20_000]
        cfg["experiment"]["replicates"] = 150
        code = main(
            ["counterexample", "--config", _write(tmp_path, cfg), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "counterexample_summary.json").read_text())
        assert summary["summary"]["mass_at_low_atom"] >= 0.40


# sha256 of every report at toy sizes, taken before the CLI's report layer was
# rewritten: exit code, stdout, each CSV, and each summary JSON without its
# "version" key (the library version is expected to change).  The
# verify-resampling digest was taken before the moments took rows of f values,
# the verify-clt and variance-table ones after sigma^2 became a quadratic form
# carried forward.
REPORT_DIGESTS = {
    "verify-clt": (
        {"horizon": 3, "m_list": [32], "replicates": 200},
        {
            "exit": 1,
            "stdout": "a5edf3da46afe12f7d6ce42106454e518e384f6a51b58052f25f59654e7981b8",
            "clt_rows.csv": "3d233f6bdb0c7eb2aebce1d6a1c161a84125be13475af76d54bcbfdd622829b6",
            "clt_summary.json": "a1b8914eb3014c8dfcf14db117fff2c5bfde7debdfd249e4c1ada4496b3f6b65",
        },
    ),
    "variance-table": (
        {"horizon": 5},
        {
            "exit": 0,
            "stdout": "b6a593f46a71c541f1218c7573991d90c9839189566f098cfdddfacafb6924b9",
            "variance_table.csv": "b6a593f46a71c541f1218c7573991d90c9839189566f098cfdddfacafb6924b9",
            "variance_table.json": "98e8c4dfdf9afbac24b539dd4ac582aefcb8d2cbefb0e7c88a495a60a6cbd869",
        },
    ),
    "verify-resampling": (
        {},
        {
            "exit": 0,
            "stdout": "b4710ef6066089fa4490aded69f55d1776835d7aaee854cad2ad55383cf77756",
            "resampling_report.json": (
                "7d1a654888e9850cd506b6181341aade5862340e2d7ef453d416b1eb88fbc867"
            ),
        },
    ),
    "counterexample": (
        {"m_list": [2000], "replicates": 200},
        {
            "exit": 0,
            "stdout": "891e8fe09bede81be77a40c3006cae665a68d02e1b6ee3b33f2f5b24f9c99e42",
            "counterexample_summary.json": (
                "9fff4d4171bd95df7eb0244a41c4b01f349fb21f465ed86fcd65f1b8b4297017"
            ),
            "counterexample_values.csv": (
                "fb9a383098bf88be949683fe8151dce1d9f3794ea98f459f308858aa8411aacd"
            ),
        },
    ),
}


def _report_digests(out: Path) -> dict:
    """sha256 of each report in ``out``, summaries without their "version" key."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            del doc["version"]
            data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        digests[path.name] = _sha256(data)
    return digests


class TestReportBytes:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
    def test_reports_match_pinned_digests(self, tmp_path, capsys, command):
        experiment, expected = REPORT_DIGESTS[command]
        cfg = default_config()
        cfg["experiment"].update(experiment)
        out = tmp_path / "out"
        code = main([command, "--config", _write(tmp_path, cfg), "--out-dir", str(out)])
        digests = {"exit": code, "stdout": _sha256(capsys.readouterr().out.encode())}
        digests.update(_report_digests(out))
        assert digests == expected


# sha256 of the rows CSV of the benchmark's two filter workloads, run from
# their pinned configs at fewer replicates and taken with the plain
# (unsorted) inverse-CDF search.  clt-small sorts 4096 multinomial keys per
# selection; lln-long makes residual draws at m up to 16384.
WORKLOAD_ROWS = {
    "clt-small": (20, "ee2873d11114bb8d0c5dc6b7625567d25e18b00bb3e1bbd941b757c4686a53ac"),
    "lln-long": (2, "56b780544b5af46bfe1eb93d2fddc54d81076a296a7cf90f7f1c3460403c7258"),
}
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


class TestWorkloadRowsBytes:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_ROWS))
    def test_rows_match_pinned_digest(self, workload):
        replicates, expected = WORKLOAD_ROWS[workload]
        cfg = cli.load_config(str(WORKLOADS / f"{workload}.json"))
        cfg["experiment"]["replicates"] = replicates
        report = cli.run_replicates(build_experiment(cfg))
        assert _sha256(("\n".join(report.csv_lines()) + "\n").encode()) == expected


class TestPhaseLogging:
    def test_suite_times_go_to_the_log_only(self, tmp_path):
        # a separate process: the CLI configures logging from SMC_LIMITS_LOG
        src = Path(cli.__file__).resolve().parents[1]
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "smclimits", "verify-resampling", "--out-dir", str(out)],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src), SMC_LIMITS_LOG="INFO"),
        )
        _, expected = REPORT_DIGESTS["verify-resampling"]
        assert proc.returncode == expected["exit"], proc.stderr
        assert _sha256(proc.stdout.encode()) == expected["stdout"]
        assert _report_digests(out) == {
            k: v for k, v in expected.items() if k not in ("exit", "stdout")
        }
        for suite in ("unbiasedness", "variance_ordering", "limit_weight"):
            assert f"INFO:smclimits:{suite} suite took " in proc.stderr

    def test_particle_counts_logged_as_they_finish(self, tmp_path, capsys, caplog):
        cfg_path = _write(tmp_path, _small_experiment())
        quiet, logged = tmp_path / "quiet", tmp_path / "logged"
        assert main(["verify-lln", "--config", cfg_path, "--out-dir", str(quiet)]) in (0, 1)
        quiet_stdout = capsys.readouterr().out
        with caplog.at_level(logging.INFO, logger="smclimits"):
            for workers in ("1", "2"):
                caplog.clear()
                main(["verify-lln", "--config", cfg_path, "--out-dir", str(logged),
                      "--workers", workers])
                done = [r.getMessage() for r in caplog.records if "replicates done" in r.getMessage()]
                assert [msg.split(":")[0] for msg in done] == ["m=16", "m=32", "m=64", "m=256"]
                assert capsys.readouterr().out == quiet_stdout
                assert _report_digests(logged) == _report_digests(quiet)


class TestWorkersDeterminism:
    def test_verify_lln_bytes_identical(self, tmp_path):
        cfg = _small_experiment()
        out1 = tmp_path / "w1"
        out8 = tmp_path / "w8"
        cfg_path = _write(tmp_path, cfg)
        main(["verify-lln", "--config", cfg_path, "--out-dir", str(out1), "--workers", "1"])
        main(["verify-lln", "--config", cfg_path, "--out-dir", str(out8), "--workers", "8"])
        assert (out1 / "lln_rows.csv").read_bytes() == (out8 / "lln_rows.csv").read_bytes()
        assert (
            out1 / "lln_summary.json"
        ).read_bytes() == (out8 / "lln_summary.json").read_bytes()


class TestExitCodes:
    def test_internal_error_maps_to_three(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("replicate engine failed")

        monkeypatch.setattr(cli, "run_replicates", broken)
        out = tmp_path / "out"
        assert main(["verify-clt", "--out-dir", str(out)]) == 3
        assert not out.exists()

    def test_too_few_clt_replicates_rejected_before_any_replicate(self, tmp_path, monkeypatch):
        # the CLT check refuses fewer than 200 replicates; the command says so up front
        monkeypatch.setattr(cli, "run_replicates", None)
        cfg = default_config()
        cfg["experiment"]["replicates"] = 10
        out = tmp_path / "out"
        code = main(["verify-clt", "--config", _write(tmp_path, cfg), "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-resampling", "verify-clt"])
    def test_tolerances_section_rejected(self, tmp_path, capsys, command):
        cfg = default_config()
        cfg["tolerances"] = {"enumeration": 0.0}
        out = tmp_path / "out"
        assert main([command, "--config", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "unknown keys ['tolerances']" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        cfg_path = _write(tmp_path, _small_experiment())
        code = main(["verify-lln", "--config", cfg_path, "--out-dir", str(out),
                     "--workers", workers])
        assert code == 2
        assert not out.exists()
        assert "--workers" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "smclimits", "verify-resampling",
             "--out-dir", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS unbiasedness" in proc.stdout


class TestSeedOverride:
    def test_seed_flag_changes_rows(self, tmp_path):
        cfg = _small_experiment()
        cfg_path = _write(tmp_path, cfg)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["verify-lln", "--config", cfg_path, "--out-dir", str(out_a), "--seed", "1"])
        main(["verify-lln", "--config", cfg_path, "--out-dir", str(out_b), "--seed", "2"])
        assert (out_a / "lln_rows.csv").read_text() != (out_b / "lln_rows.csv").read_text()
