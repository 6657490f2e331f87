"""Tests for the command-line front end: schema, exit codes, artifacts."""

import json
from pathlib import Path

from smclimits.cli import build_experiment, default_config, main


def _write(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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

    def test_zero_tolerance_fails(self, tmp_path):
        cfg = default_config()
        cfg["tolerances"] = {"enumeration": 0.0}
        code = main(
            ["verify-resampling", "--config", _write(tmp_path, cfg), "--out-dir", str(tmp_path)]
        )
        assert code == 1


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
    def test_internal_error_maps_to_three(self, tmp_path):
        # a valid config that breaks a runtime precondition: the CLT check
        # refuses fewer than 200 replicates
        cfg = default_config()
        cfg["experiment"]["replicates"] = 10
        code = main(
            ["verify-clt", "--config", _write(tmp_path, cfg), "--out-dir", str(tmp_path)]
        )
        assert code == 3

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
