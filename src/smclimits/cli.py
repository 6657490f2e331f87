"""Configuration-driven command line front end.

Subcommands
-----------
verify-resampling   enumeration unbiasedness, variance ordering, limit weight
verify-lln          error-decay rate over a particle-count grid
verify-clt          scaled errors against the exact variance recursion
counterexample      the residual scheme's two-atom non-convergence
variance-table      per-step output of the exact variance recursion

All take ``--config PATH`` (a JSON document; a built-in default is used
when omitted), ``--seed`` (overrides the experiment seed), ``--out-dir``
and ``--workers``.  Exit codes: 0 all checks passed, 1 a check failed,
2 configuration error, 3 internal error.  Set the SMC_LIMITS_LOG
environment variable to a logging level name for progress output.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .harness import (
    ExperimentConfig,
    TerminalFunction,
    clt_check,
    counterexample_run,
    lln_check,
    policy_from_dict,
    require_lln_grid,
    run_replicates,
    summarize_counterexample,
)
from .state_space import (
    PROPOSAL_KINDS,
    DiscreteHMM,
    LinearGaussianSSM,
    random_likelihood_table,
)
from .variance_oracle import run_recursion, variance_table
from .verify import (
    limit_weight_suite,
    unbiasedness_suite,
    variance_ordering_suite,
)

log = logging.getLogger("smclimits")

DEFAULT_OBS_SEED = 1289
DEFAULT_MASTER_SEED = 20240817


class ConfigError(Exception):
    """A configuration document failed validation."""


def default_config() -> dict:
    """The pinned two-state benchmark configuration."""
    return {
        "model": {
            "type": "discrete_hmm",
            "parameters": {
                "initial": [0.5, 0.5],
                "transition": [[0.9, 0.1], [0.2, 0.8]],
            },
            "obs_seed": DEFAULT_OBS_SEED,
        },
        "proposal": "prior",
        "policy": {"scheme": "multinomial", "trigger": "cv", "kappa2": 1.0, "ell": 1.0},
        "experiment": {
            "horizon": 4,
            "functions": [{"name": "ind0", "kind": "indicator", "state": 0}],
            "m_list": [4096],
            "replicates": 500,
            "seed": DEFAULT_MASTER_SEED,
        },
    }


def _require_keys(section: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _positive_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{path}: expected a positive integer")
    return value


def load_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected an object")
    return cfg


def _parse_function(entry: dict, index: int) -> TerminalFunction:
    path = f"experiment.functions[{index}]"
    _require_keys(entry, path, ("kind",), ("name", "state", "a", "b", "values"))
    kind = entry["kind"]
    name = entry.get("name", f"f{index}")
    if kind == "indicator":
        return TerminalFunction(name=name, kind=kind, state=int(entry.get("state", 0)))
    if kind == "affine":
        return TerminalFunction(
            name=name, kind=kind, a=float(entry.get("a", 1.0)), b=float(entry.get("b", 0.0))
        )
    if kind == "table":
        if "values" not in entry:
            raise ConfigError(f"{path}: table functions need 'values'")
        return TerminalFunction(name=name, kind=kind, values=tuple(entry["values"]))
    raise ConfigError(f"{path}: unknown function kind {kind!r}")


def build_experiment(cfg: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config document and assemble the experiment."""
    _require_keys(cfg, "config", ("model", "proposal", "policy", "experiment"), ("tolerances",))
    exp = cfg["experiment"]
    _require_keys(
        exp, "experiment", ("horizon", "functions", "m_list", "replicates", "seed")
    )
    horizon = _positive_int(exp["horizon"], "experiment.horizon")
    replicates = _positive_int(exp["replicates"], "experiment.replicates")
    seed = exp["seed"] if seed_override is None else seed_override
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("experiment.seed: expected a nonnegative integer")
    m_list = exp["m_list"]
    if not isinstance(m_list, list) or not m_list:
        raise ConfigError("experiment.m_list: expected a nonempty list")
    counts = tuple(_positive_int(m, "experiment.m_list") for m in m_list)
    if not isinstance(exp["functions"], list) or not exp["functions"]:
        raise ConfigError("experiment.functions: expected a nonempty list")
    functions = tuple(_parse_function(f, i) for i, f in enumerate(exp["functions"]))

    proposal = cfg["proposal"]
    if proposal not in PROPOSAL_KINDS:
        raise ConfigError(f"proposal: expected one of {PROPOSAL_KINDS}")

    pol = cfg["policy"]
    _require_keys(pol, "policy", (), ("scheme", "trigger", "kappa2", "ell"))
    try:
        policy = policy_from_dict(pol)
    except ValueError as exc:
        raise ConfigError(f"policy: {exc}") from exc

    model = build_model(cfg["model"], horizon)
    try:
        return ExperimentConfig(
            model=model,
            proposal_kind=proposal,
            policy=policy,
            horizon=horizon,
            functions=functions,
            particle_counts=counts,
            replicates=replicates,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_model(section: dict, horizon: int):
    _require_keys(
        section,
        "model",
        ("type", "parameters"),
        ("observations", "obs_seed", "obs_low", "obs_high"),
    )
    has_obs = "observations" in section
    has_seed = "obs_seed" in section
    if has_obs == has_seed:
        raise ConfigError("model: give exactly one of 'observations' or 'obs_seed'")
    params = section["parameters"]
    if section["type"] == "discrete_hmm":
        _require_keys(params, "model.parameters", ("initial", "transition"))
        initial = np.array(params["initial"], dtype=float)
        if has_seed:
            table = random_likelihood_table(
                horizon,
                initial.size,
                int(section["obs_seed"]),
                low=float(section.get("obs_low", 0.3)),
                high=float(section.get("obs_high", 3.0)),
            )
        else:
            table = np.array(section["observations"], dtype=float)
            if table.ndim != 2 or table.shape[0] < horizon:
                raise ConfigError("model.observations: need one likelihood row per step")
        try:
            return DiscreteHMM(initial, params["transition"], table)
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
    if section["type"] == "linear_gaussian":
        _require_keys(params, "model.parameters", ("ar_coeff", "state_std", "obs_std"))
        try:
            if has_obs:
                obs = np.array(section["observations"], dtype=float)
            else:
                probe = LinearGaussianSSM(
                    params["ar_coeff"], params["state_std"], params["obs_std"], [0.0]
                )
                obs = probe.simulate_observations(horizon, int(section["obs_seed"]))
            return LinearGaussianSSM(
                params["ar_coeff"], params["state_std"], params["obs_std"], obs
            )
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
    raise ConfigError(f"model.type: unknown type {section['type']!r}")


def resolved_kappa2(policy) -> float:
    """The threshold the exact recursion should mirror for this policy."""
    if policy.trigger == "always":
        return 0.0
    if policy.trigger == "never":
        return math.inf
    return policy.kappa2


def _require_oracle_compatible(policy) -> None:
    # the variance recursion models multinomial selection at ell = 1 only;
    # any other selection that can actually fire would be compared against
    # the wrong oracle
    if policy.trigger == "never":
        return
    if policy.scheme != "multinomial":
        raise ConfigError(
            "the exact variance recursion covers multinomial selection only; "
            "use scheme 'multinomial' (or trigger 'never') here"
        )
    if policy.ratio != 1.0:
        raise ConfigError(
            "the exact variance recursion assumes an output size equal to the "
            "input size; use ell 1 (or trigger 'never') here"
        )


def _sanitize(obj):
    """A JSON-ready copy: numpy values become Python ones, infinities "inf"."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _write_json(out_dir: Path, name: str, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n")
    log.info("wrote %s", path)


def _write_lines(out_dir: Path, name: str, lines: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text("\n".join(lines) + "\n")
    log.info("wrote %s", path)


def _tolerances(cfg: dict) -> dict:
    tol = cfg.get("tolerances", {})
    _require_keys(
        tol, "tolerances", (), ("enumeration", "variance_slack", "limit_weight_rel")
    )
    return tol


def cmd_verify_resampling(args, cfg: dict) -> int:
    experiment = build_experiment(cfg, args.seed)
    tol = _tolerances(cfg)
    suites = [
        unbiasedness_suite(
            seed=experiment.seed, tolerance=float(tol.get("enumeration", 1e-12))
        ),
        variance_ordering_suite(
            seed=experiment.seed + 1, slack=float(tol.get("variance_slack", 1e-12))
        ),
        limit_weight_suite(
            seed=experiment.seed + 2,
            rel_tolerance=float(tol.get("limit_weight_rel", 0.02)),
        ),
    ]
    passed = all(s["passed"] for s in suites)
    report = {
        "command": "verify-resampling",
        "passed": passed,
        "suites": suites,
        "config": experiment.to_dict(),
        "config_hash": experiment.config_hash(),
        "version": __version__,
    }
    _write_json(Path(args.out_dir), "resampling_report.json", report)
    for s in suites:
        print(f"{'PASS' if s['passed'] else 'FAIL'} {s['suite']}")
    return 0 if passed else 1


def cmd_verify_lln(args, cfg: dict) -> int:
    experiment = build_experiment(cfg, args.seed)
    try:
        require_lln_grid(experiment.particle_counts)
    except ValueError as exc:
        raise ConfigError(f"experiment.m_list: {exc}") from exc
    report = run_replicates(experiment, workers=args.workers)
    check = lln_check(report)
    summary = report.to_json_dict()
    summary["command"] = "verify-lln"
    summary["lln"] = {
        "slope": check.slope,
        "passed": check.passed,
        "slope_in_band": check.slope_in_band,
        "max_fraction_decreasing": check.max_fraction_decreasing,
        "rmse_by_m": {str(k): v for k, v in check.rmse_by_m.items()},
        "median_max_fraction_by_m": {
            str(k): v for k, v in check.median_max_fraction_by_m.items()
        },
    }
    out = Path(args.out_dir)
    _write_lines(out, "lln_rows.csv", report.csv_lines())
    _write_json(out, "lln_summary.json", summary)
    print(f"{'PASS' if check.passed else 'FAIL'} lln slope={check.slope:.3f}")
    return 0 if check.passed else 1


def cmd_verify_clt(args, cfg: dict) -> int:
    experiment = build_experiment(cfg, args.seed)
    if not isinstance(experiment.model, DiscreteHMM):
        raise ConfigError("verify-clt needs a discrete model (the oracle is exact there)")
    _require_oracle_compatible(experiment.policy)
    report = run_replicates(experiment, workers=args.workers)
    kappa2 = resolved_kappa2(experiment.policy)
    state = run_recursion(
        experiment.model, experiment.proposal_kind, kappa2, horizon=experiment.horizon
    )
    out = Path(args.out_dir)
    results = []
    passed = True
    for fn in experiment.functions:
        sigma2 = state.sigma2(fn.table_for(experiment.model))
        for m in experiment.particle_counts:
            check = clt_check(report, sigma2, m=m, function=fn.name)
            passed = passed and check.passed
            results.append(
                {
                    "function": fn.name,
                    "m": m,
                    "sigma2_oracle": sigma2,
                    "var_ratio": check.var_ratio,
                    "ks_stat": check.ks_stat,
                    "ks_p": check.ks_p,
                    "passed": check.passed,
                }
            )
    summary = report.to_json_dict()
    summary["command"] = "verify-clt"
    summary["clt"] = results
    _write_lines(out, "clt_rows.csv", report.csv_lines())
    _write_json(out, "clt_summary.json", summary)
    for r in results:
        print(
            f"{'PASS' if r['passed'] else 'FAIL'} clt {r['function']} m={r['m']} "
            f"var_ratio={r['var_ratio']:.3f} ks_p={r['ks_p']:.3f}"
        )
    return 0 if passed else 1


def cmd_counterexample(args, cfg: dict) -> int:
    experiment = build_experiment(cfg, args.seed)
    m = experiment.particle_counts[0]
    result = counterexample_run(m, experiment.replicates, experiment.seed)
    summary_stats = summarize_counterexample(result.values)
    passed = (
        summary_stats["mass_at_low_atom"] >= 0.40
        and summary_stats["mass_at_high_atom"] >= 0.40
        and summary_stats["max_window_mass"] < 0.95
    )
    out = Path(args.out_dir)
    lines = ["replicate,value,mean_weight"]
    for r, (v, w) in enumerate(zip(result.values, result.mean_weights)):
        lines.append(f"{r},{v!r},{w!r}")
    _write_lines(out, "counterexample_values.csv", lines)
    _write_json(
        out,
        "counterexample_summary.json",
        {
            "command": "counterexample",
            "m": m,
            "replicates": experiment.replicates,
            "seed": experiment.seed,
            "summary": summary_stats,
            "passed": passed,
            "config": experiment.to_dict(),
            "config_hash": experiment.config_hash(),
            "version": __version__,
        },
    )
    print(
        f"{'PASS' if passed else 'FAIL'} counterexample "
        f"low={summary_stats['mass_at_low_atom']:.2f} high={summary_stats['mass_at_high_atom']:.2f}"
    )
    return 0 if passed else 1


def cmd_variance_table(args, cfg: dict) -> int:
    experiment = build_experiment(cfg, args.seed)
    if not isinstance(experiment.model, DiscreteHMM):
        raise ConfigError("variance-table needs a discrete model")
    _require_oracle_compatible(experiment.policy)
    kappa2 = resolved_kappa2(experiment.policy)
    functions = [
        (fn.name, fn.table_for(experiment.model)) for fn in experiment.functions
    ]
    rows = variance_table(
        experiment.model,
        experiment.proposal_kind,
        kappa2,
        functions,
        horizon=experiment.horizon,
    )
    header = ["k", "epsilon", "normalizer", "cv2_limit", "gamma_total"] + [
        f"sigma2[{name}]" for name, _ in functions
    ]
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            value = row[key]
            cells.append("" if value is None else (str(value) if isinstance(value, int) else repr(float(value))))
        lines.append(",".join(cells))
    out = Path(args.out_dir)
    _write_lines(out, "variance_table.csv", lines)
    _write_json(
        out,
        "variance_table.json",
        {
            "command": "variance-table",
            "rows": rows,
            "config": experiment.to_dict(),
            "config_hash": experiment.config_hash(),
            "version": __version__,
        },
    )
    for line in lines:
        print(line)
    return 0


_COMMANDS = {
    "verify-resampling": cmd_verify_resampling,
    "verify-lln": cmd_verify_lln,
    "verify-clt": cmd_verify_clt,
    "counterexample": cmd_counterexample,
    "variance-table": cmd_variance_table,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smc-limits",
        description="verification harness for sequential Monte Carlo limit behavior",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the experiment seed")
        p.add_argument("--out-dir", default=".", help="directory for reports")
        p.add_argument("--workers", type=int, default=1, help="replicate-level parallelism")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SMC_LIMITS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the contract maps these to exit 3
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
