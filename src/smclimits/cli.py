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
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .harness import (
    ExperimentConfig,
    TerminalFunction,
    clt_check,
    counterexample_run,
    lln_check,
    require_clt_replicates,
    require_lln_grid,
    run_replicates,
    summarize_counterexample,
)
from .resampling import MULTINOMIAL, ResamplingPolicy
from .state_space import PROPOSAL_KINDS, DiscreteHMM, LinearGaussianSSM, random_likelihood_table
from .variance_oracle import VarianceRecursionState, run_recursion
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


def _integer(value, path: str, low: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ConfigError(f"{path}: expected an integer >= {low}")
    return value


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number")
    return float(value)


def _numbers(value, path: str, depth: int) -> list:
    """Finite numbers nested ``depth`` lists deep, each row as long as the first."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    if depth == 1:
        return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    rows = [_numbers(v, f"{path}[{i}]", depth - 1) for i, v in enumerate(value)]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ConfigError(f"{path}: rows of unequal length")
    return rows


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
    if not isinstance(name, str):
        raise ConfigError(f"{path}.name: expected a string")
    if kind == "indicator":
        state = _integer(entry.get("state", 0), f"{path}.state")
        return TerminalFunction(name=name, kind=kind, state=state)
    if kind == "affine":
        return TerminalFunction(
            name=name,
            kind=kind,
            a=_number(entry.get("a", 1.0), f"{path}.a"),
            b=_number(entry.get("b", 0.0), f"{path}.b"),
        )
    if kind == "table":
        values = entry.get("values")
        if not isinstance(values, list):
            raise ConfigError(f"{path}: table functions need a 'values' list")
        for i, value in enumerate(values):
            _number(value, f"{path}.values[{i}]")
        return TerminalFunction(name=name, kind=kind, values=tuple(values))
    raise ConfigError(f"{path}: unknown function kind {kind!r}")


def build_experiment(cfg: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config document and assemble the experiment."""
    _require_keys(cfg, "config", ("model", "proposal", "policy", "experiment"))
    exp = cfg["experiment"]
    _require_keys(
        exp, "experiment", ("horizon", "functions", "m_list", "replicates", "seed")
    )
    horizon = _integer(exp["horizon"], "experiment.horizon", 1)
    replicates = _integer(exp["replicates"], "experiment.replicates", 1)
    seed = _integer(exp["seed"] if seed_override is None else seed_override, "experiment.seed")
    m_list = exp["m_list"]
    if not isinstance(m_list, list) or not m_list:
        raise ConfigError("experiment.m_list: expected a nonempty list")
    counts = tuple(_integer(m, "experiment.m_list", 1) for m in m_list)
    if not isinstance(exp["functions"], list) or not exp["functions"]:
        raise ConfigError("experiment.functions: expected a nonempty list")
    functions = tuple(_parse_function(f, i) for i, f in enumerate(exp["functions"]))
    names = [fn.name for fn in functions]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"experiment.functions[{i}].name: duplicate name {name!r}")

    proposal = cfg["proposal"]
    if proposal not in PROPOSAL_KINDS:
        raise ConfigError(f"proposal: expected one of {PROPOSAL_KINDS}")

    pol = cfg["policy"]
    _require_keys(pol, "policy", (), ("scheme", "trigger", "kappa2", "ell"))
    kappa2 = pol.get("kappa2", 0.0)
    try:
        policy = ResamplingPolicy(
            scheme=pol.get("scheme", MULTINOMIAL),
            trigger=pol.get("trigger", "always"),
            kappa2=math.inf if kappa2 == "inf" else _number(kappa2, "policy.kappa2"),
            ratio=_number(pol.get("ell", 1.0), "policy.ell"),
        )
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
    obs_seed = _integer(section["obs_seed"], "model.obs_seed") if has_seed else None
    if section["type"] == "discrete_hmm":
        _require_keys(params, "model.parameters", ("initial", "transition"))
        initial = _numbers(params["initial"], "model.parameters.initial", 1)
        transition = _numbers(params["transition"], "model.parameters.transition", 2)
        if has_seed:
            table = random_likelihood_table(
                horizon,
                len(initial),
                obs_seed,
                low=_number(section.get("obs_low", 0.3), "model.obs_low"),
                high=_number(section.get("obs_high", 3.0), "model.obs_high"),
            )
        else:
            table = np.array(_numbers(section["observations"], "model.observations", 2))
            if table.ndim != 2 or table.shape[0] < horizon:
                raise ConfigError("model.observations: need one likelihood row per step")
        try:
            return DiscreteHMM(initial, transition, table)
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
    if section["type"] == "linear_gaussian":
        _require_keys(params, "model.parameters", ("ar_coeff", "state_std", "obs_std"))
        coeffs = [
            _number(params[key], f"model.parameters.{key}")
            for key in ("ar_coeff", "state_std", "obs_std")
        ]
        try:
            if has_obs:
                obs = _numbers(section["observations"], "model.observations", 1)
            else:
                obs = LinearGaussianSSM(*coeffs, [0.0]).simulate_observations(horizon, obs_seed)
            return LinearGaussianSSM(*coeffs, obs)
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
    raise ConfigError(f"model.type: unknown type {section['type']!r}")


def _require(path: str, check, *args) -> None:
    """Run a harness precondition; its ValueError becomes a ConfigError at ``path``."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _oracle(experiment: ExperimentConfig) -> VarianceRecursionState:
    """The exact variance recursion of the experiment's filter; exit 2 where it has none."""
    try:
        return run_recursion(
            experiment.model, experiment.proposal_kind, experiment.policy, experiment.horizon
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sanitize(obj):
    """A JSON-ready copy: numpy values become Python ones, keys strings, infinities "inf"."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
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


@dataclass(frozen=True)
class Outcome:
    """What a command reports; the runner adds provenance and writes it."""

    summary_name: str
    summary: dict
    stdout: list[str]
    passed: bool = True
    csv_name: str | None = None
    csv_lines: list[str] = field(default_factory=list)


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _timed_suite(suite, **kwargs) -> dict:
    """Run one verification suite and log its elapsed time."""
    start = time.perf_counter()
    report = suite(**kwargs)
    log.info("%s suite took %.3f s", report["suite"], time.perf_counter() - start)
    return report


def cmd_verify_resampling(args, experiment: ExperimentConfig) -> Outcome:
    suites = [
        _timed_suite(unbiasedness_suite, seed=experiment.seed),
        _timed_suite(variance_ordering_suite, seed=experiment.seed + 1),
        _timed_suite(limit_weight_suite, seed=experiment.seed + 2),
    ]
    passed = all(s["passed"] for s in suites)
    return Outcome(
        "resampling_report.json",
        {"passed": passed, "suites": suites},
        [f"{_verdict(s['passed'])} {s['suite']}" for s in suites],
        passed,
    )


def cmd_verify_lln(args, experiment: ExperimentConfig) -> Outcome:
    _require("experiment.m_list", require_lln_grid, experiment.particle_counts)
    report = run_replicates(experiment, workers=args.workers)
    check = lln_check(report)
    summary = report.to_json_dict()
    summary["lln"] = asdict(check)
    return Outcome(
        "lln_summary.json",
        summary,
        [f"{_verdict(check.passed)} lln slope={check.slope:.3f}"],
        check.passed,
        "lln_rows.csv",
        report.csv_lines(),
    )


def cmd_verify_clt(args, experiment: ExperimentConfig) -> Outcome:
    _require("experiment.replicates", require_clt_replicates, experiment.replicates)
    state = _oracle(experiment)
    report = run_replicates(experiment, workers=args.workers)
    results = []
    for fn in experiment.functions:
        sigma2 = state.sigma2(fn.table_for(experiment.model))
        for m in experiment.particle_counts:
            check = clt_check(report, sigma2, m=m, function=fn.name)
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
    summary["clt"] = results
    stdout = [
        f"{_verdict(r['passed'])} clt {r['function']} m={r['m']} "
        f"var_ratio={r['var_ratio']:.3f} ks_p={r['ks_p']:.3f}"
        for r in results
    ]
    passed = all(r["passed"] for r in results)
    return Outcome("clt_summary.json", summary, stdout, passed, "clt_rows.csv", report.csv_lines())


def cmd_counterexample(args, experiment: ExperimentConfig) -> Outcome:
    m = experiment.particle_counts[0]
    result = counterexample_run(m, experiment.replicates, experiment.seed)
    stats = summarize_counterexample(result.values)
    passed = (
        stats["mass_at_low_atom"] >= 0.40
        and stats["mass_at_high_atom"] >= 0.40
        and stats["max_window_mass"] < 0.95
    )
    lines = ["replicate,value,mean_weight"]
    for r, (v, w) in enumerate(zip(result.values, result.mean_weights)):
        lines.append(f"{r},{v!r},{w!r}")
    summary = {
        "m": m,
        "replicates": experiment.replicates,
        "seed": experiment.seed,
        "summary": stats,
        "passed": passed,
    }
    stdout = [
        f"{_verdict(passed)} counterexample "
        f"low={stats['mass_at_low_atom']:.2f} high={stats['mass_at_high_atom']:.2f}"
    ]
    return Outcome(
        "counterexample_summary.json", summary, stdout, passed, "counterexample_values.csv", lines
    )


def cmd_variance_table(args, experiment: ExperimentConfig) -> Outcome:
    state = _oracle(experiment)
    tables = [fn.table_for(experiment.model) for fn in experiment.functions]
    header = ["k", "epsilon", "normalizer", "cv2_limit", "gamma_total"] + [
        f"sigma2[{fn.name}]" for fn in experiment.functions
    ]
    rows = [
        dict(zip(header, (
            k, step.epsilon, step.normalizer, step.cv2_limit, float(np.sum(step.gamma)),
            *(state.sigma2(table, k) for table in tables),
        )))
        for k, step in enumerate(state.steps, start=1)
    ]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "" if v is None else str(v) if isinstance(v, int) else repr(float(v))
            for v in (row[key] for key in header)
        ))
    return Outcome("variance_table.json", {"rows": rows}, lines, True, "variance_table.csv", lines)


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
        p.add_argument("--workers", type=int, default=1, help="replicate-level parallelism (>= 1)")
    return parser


def run_command(args, cfg: dict) -> int:
    """Build the experiment, run one command, write its reports; 0 on PASS, 1 on FAIL."""
    _integer(args.workers, "--workers", 1)
    experiment = build_experiment(cfg, args.seed)
    outcome = _COMMANDS[args.command](args, experiment)
    summary = dict(
        outcome.summary,
        command=args.command,
        config=experiment.to_dict(),
        config_hash=experiment.config_hash(),
        version=__version__,
    )
    out = Path(args.out_dir)
    if outcome.csv_name is not None:
        _write_lines(out, outcome.csv_name, outcome.csv_lines)
    _write_json(out, outcome.summary_name, summary)
    for line in outcome.stdout:
        print(line)
    return 0 if outcome.passed else 1


def main(argv=None) -> int:
    level = os.environ.get("SMC_LIMITS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args, load_config(args.config))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the contract maps these to exit 3
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
