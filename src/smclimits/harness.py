"""Monte Carlo replication engine and statistical checks at desk scale.

The limit statements certified here are asymptotic; the harness reproduces
them empirically by running many independent filter replicates at growing
particle counts and comparing against exact oracles:

* the law-of-large-numbers check fits the error-decay rate over a grid of
  particle counts (slope -1/2 in log2-log2) and requires the largest
  normalized weight to keep shrinking;
* the central-limit check standardizes the scaled errors by the exact
  recursion variance and applies a one-sample Kolmogorov-Smirnov test;
* the counterexample run reproduces the two-atom limit of the residual
  scheme's deterministically copied part when the regularity condition is
  violated, certifying non-convergence in probability.

Every replicate draws its generator from (master seed, particle count,
replicate index), so reports are pure functions of their configuration at
any worker count.  Test functions enter the filter's estimate as their
values at the terminal coordinates, :meth:`TerminalFunction.values_at`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .resampling import ResamplingPolicy, _residual_alloc
from .state_space import (
    MAX_POPULATION,
    DiscreteHMM,
    LinearGaussianSSM,
    filter_marginal,
    smc_run,
)

log = logging.getLogger("smclimits")

# ---------------------------------------------------------------------------
# Normal CDF, Kolmogorov-Smirnov
# ---------------------------------------------------------------------------


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def kolmogorov_sf(t: float, min_terms: int = 10) -> float:
    """Survival function of the Kolmogorov distribution.

    The alternating series 2 sum_j (-1)^(j-1) exp(-2 j^2 t^2), summed until
    the terms fall below double precision (at least ``min_terms`` of them).
    Below t = 0.2 the value is 1 to double precision (the left tail decays
    like exp(-pi^2 / (8 t^2))) and the series is not usable, so 1 is
    returned directly.
    """
    if t <= 0.2:
        return 1.0
    total = 0.0
    for j in range(1, 100001):
        term = math.exp(-2.0 * j * j * t * t)
        total += term if j % 2 == 1 else -term
        if j >= min_terms and term < 1e-16:
            break
    return min(1.0, max(0.0, 2.0 * total))


def ks_test(values: Sequence[float]) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against the standard normal.

    Returns the statistic D_n = sup |F_n - Phi| (computed by the sorted
    sample formula) and the asymptotic p-value Q(sqrt(n) D_n).
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n < 10:
        raise ValueError("the KS test needs at least 10 values")
    cdf = np.array([normal_cdf(x) for x in v])
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - cdf))
    d_minus = float(np.max(cdf - (i - 1) / n))
    d = max(d_plus, d_minus)
    return d, kolmogorov_sf(math.sqrt(n) * d)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalFunction:
    """A test function of the path's terminal coordinate.

    ``indicator`` is 1 on one state; ``affine`` is a * state + b (state
    index for discrete models, state value for the linear-Gaussian one);
    ``table`` gives explicit per-state values for discrete models.
    """

    name: str
    kind: str = "indicator"
    state: int = 0
    a: float = 1.0
    b: float = 0.0
    values: tuple | None = None

    def table_for(self, model: DiscreteHMM) -> np.ndarray:
        n = model.n_states
        if self.kind == "indicator":
            if not 0 <= self.state < n:
                raise ValueError(f"indicator state {self.state} outside 0..{n - 1}")
            table = np.zeros(n)
            table[self.state] = 1.0
            return table
        if self.kind == "affine":
            return self.a * np.arange(n, dtype=float) + self.b
        if self.kind == "table":
            table = np.asarray(self.values, dtype=float)
            if table.shape != (n,):
                raise ValueError("table length must match the state count")
            return table
        raise ValueError(f"unknown function kind {self.kind!r}")

    def values_at(self, model: DiscreteHMM | LinearGaussianSSM, x: np.ndarray) -> np.ndarray:
        """f at the terminal coordinates ``x``: a table lookup for discrete models,
        a * x + b for the linear-Gaussian one."""
        if isinstance(model, DiscreteHMM):
            return self.table_for(model)[x]
        if self.kind != "affine":
            raise ValueError("continuous models support affine functions only")
        return self.a * x + self.b

    def to_dict(self) -> dict:
        d = {"name": self.name, "kind": self.kind}
        if self.kind == "indicator":
            d["state"] = self.state
        elif self.kind == "affine":
            d["a"] = self.a
            d["b"] = self.b
        elif self.kind == "table":
            d["values"] = list(self.values)
        return d


def policy_to_dict(policy: ResamplingPolicy) -> dict:
    return {
        "scheme": policy.scheme,
        "trigger": policy.trigger,
        "kappa2": "inf" if math.isinf(policy.kappa2) else policy.kappa2,
        "ell": policy.ratio,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a replication experiment depends on."""

    model: DiscreteHMM | LinearGaussianSSM
    proposal_kind: str
    policy: ResamplingPolicy
    horizon: int
    functions: tuple[TerminalFunction, ...]
    particle_counts: tuple[int, ...]
    replicates: int
    seed: int

    def __post_init__(self):
        if len(self.functions) < 1:
            raise ValueError("at least one test function is required")
        counts = self.particle_counts
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError("particle counts must be strictly increasing")
        if self.replicates < 1:
            raise ValueError("at least one replicate is required")
        if not 1 <= self.horizon <= self.model.horizon:
            raise ValueError("horizon exceeds the model's observation record")
        # f constant where the filter law puts mass has sigma^2 = 0: its error is
        # rounding noise, which no rate fit or variance ratio can judge; an
        # affine f of a real state is constant when f(0) == f(1)
        if isinstance(self.model, DiscreteHMM):
            states = np.flatnonzero(filter_marginal(self.model, self.horizon))
        else:
            states = np.array([0.0, 1.0])
        for fn in self.functions:
            if np.ptp(fn.values_at(self.model, states)) == 0.0:
                raise ValueError(f"function {fn.name!r} is constant on the states the "
                                 f"filter reaches at horizon {self.horizon}")
        if self.policy.trigger != "never" and self.policy.ratio != 1.0:
            # selection may fire at every step, scaling each population each
            # time: the smallest must keep one particle, the largest must fit
            low, high = counts[0], counts[-1]
            for _ in range(self.horizon - 1):
                if self.policy.ratio * high > MAX_POPULATION:
                    raise ValueError(
                        f"population growth: ell = {self.policy.ratio} takes "
                        f"{counts[-1]} particles past {MAX_POPULATION} within "
                        f"{self.horizon - 1} selections"
                    )
                low, high = self.policy.output_size(low), self.policy.output_size(high)

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "proposal": self.proposal_kind,
            "policy": policy_to_dict(self.policy),
            "experiment": {
                "horizon": self.horizon,
                "functions": [f.to_dict() for f in self.functions],
                "m_list": list(self.particle_counts),
                "replicates": self.replicates,
                "seed": self.seed,
            },
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def truth(self, fn: TerminalFunction) -> float:
        if isinstance(self.model, DiscreteHMM):
            law = filter_marginal(self.model, self.horizon)
            return float(np.dot(law, fn.table_for(self.model)))
        means, _ = self.model.kalman_filter()
        return fn.values_at(self.model, float(means[self.horizon - 1]))


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------


def _replicate_row(task: tuple[ExperimentConfig, int, int, dict]) -> dict:
    config, m, r, truths = task
    seed = np.random.SeedSequence([config.seed, m, r])
    trace = smc_run(
        config.model, config.proposal_kind, config.policy, m, seed, horizon=config.horizon
    )
    last = trace.current.paths[:, -1]
    estimates = {
        fn.name: trace.terminal_estimate(fn.values_at(config.model, last))
        for fn in config.functions
    }
    final = trace.current
    return {
        "m": m,
        "replicate": r,
        "final_ess": final.ess,
        "n_resamples": trace.n_resamples(),
        "final_max_weight_fraction": final.max_weight_fraction,
        "estimates": estimates,
        "scaled_errors": {
            name: math.sqrt(m) * (est - truths[name]) for name, est in estimates.items()
        },
        "cv2_by_step": trace.cv2_by_step(),
        "decisions": [int(b) for b in trace.decisions()],
    }


def aggregate_rows(
    rows: Sequence[dict], functions: Sequence[TerminalFunction]
) -> list[dict]:
    """Per-particle-count aggregates; a symmetric function of the rows."""
    by_m: dict[int, list[dict]] = {}
    for row in rows:
        by_m.setdefault(row["m"], []).append(row)
    out = []
    for m in sorted(by_m):
        group = by_m[m]
        entry: dict = {"m": m, "replicates": len(group)}
        for fn in functions:
            errs = np.array([row["scaled_errors"][fn.name] for row in group])
            entry[f"rmse[{fn.name}]"] = float(np.sqrt(np.mean((errs / math.sqrt(m)) ** 2)))
            entry[f"mean_scaled_error[{fn.name}]"] = float(np.mean(errs))
            entry[f"var_scaled_error[{fn.name}]"] = (
                float(np.var(errs, ddof=1)) if len(group) > 1 else 0.0
            )
        entry["median_final_max_weight_fraction"] = float(
            np.median([row["final_max_weight_fraction"] for row in group])
        )
        cv2 = np.array([row["cv2_by_step"] for row in group])
        entry["mean_cv2_by_step"] = [float(x) for x in np.mean(cv2, axis=0)]
        patterns: dict[str, int] = {}
        for row in group:
            key = "".join(str(d) for d in row["decisions"])
            patterns[key] = patterns.get(key, 0) + 1
        entry["decision_patterns"] = dict(sorted(patterns.items()))
        out.append(entry)
    return out


@dataclass(frozen=True)
class ExperimentReport:
    """The full, reproducible outcome of one replication experiment."""

    truths: dict
    rows: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)

    def scaled_errors(self, m: int, function: str | None = None) -> np.ndarray:
        """The scaled errors of ``function`` (default: the first) at particle count m."""
        function = next(iter(self.truths)) if function is None else function
        return np.array([row["scaled_errors"][function] for row in self.rows if row["m"] == m])

    def csv_lines(self) -> list[str]:
        """One line per replicate, with the first function's estimate and scaled error."""
        first = next(iter(self.truths))
        lines = ["m,replicate,estimate,scaled_error,final_ess,n_resamples"]
        for row in self.rows:
            lines.append(
                f"{row['m']},{row['replicate']},{row['estimates'][first]!r},"
                f"{row['scaled_errors'][first]!r},{row['final_ess']!r},{row['n_resamples']}"
            )
        return lines

    def to_json_dict(self) -> dict:
        return {"truths": self.truths, "aggregates": self.aggregates}


def _collect(rows: Iterable[dict], replicates: int, start: float) -> list[dict]:
    """The rows in task order, logging as the last replicate of each particle count arrives."""
    out = []
    for row in rows:
        out.append(row)
        if row["replicate"] == replicates - 1:
            log.info("m=%d: %d replicates done at %.2f s", row["m"], replicates,
                     time.perf_counter() - start)
    return out


def run_replicates(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run every (particle count, replicate) pair and aggregate.

    Replicates are independent given their derived streams, so any worker
    count yields the identical report; results are reduced in (count,
    replicate) order regardless of completion order.
    """
    truths = {fn.name: config.truth(fn) for fn in config.functions}
    tasks = [
        (config, m, r, truths)
        for m in config.particle_counts
        for r in range(config.replicates)
    ]
    start = time.perf_counter()
    if workers > 1:
        # a pool starts all its processes at once: no more than the tasks or cores
        size = min(workers, len(tasks), os.cpu_count() or 1)
        try:
            with ProcessPoolExecutor(max_workers=size) as pool:
                # one replicate per task: cost grows with the particle count,
                # so chunks of several leave a worker idle at the end
                rows = _collect(pool.map(_replicate_row, tasks), config.replicates, start)
        except OSError as exc:  # no subprocess support: same result serially
            log.warning("process pool unavailable (%s); running replicates serially", exc)
            rows = _collect(map(_replicate_row, tasks), config.replicates, start)
    else:
        rows = _collect(map(_replicate_row, tasks), config.replicates, start)
    return ExperimentReport(
        truths=truths,
        rows=rows,
        aggregates=aggregate_rows(rows, config.functions),
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LlnCheck:
    slope: float
    passed: bool
    slope_in_band: bool
    max_fraction_decreasing: bool
    rmse_by_m: dict
    median_max_fraction_by_m: dict


def require_lln_grid(counts: Sequence[int]) -> None:
    """Raise unless the particle counts support the rate fit of :func:`lln_check`."""
    counts = sorted(counts)
    if len(counts) < 4 or math.log2(counts[-1] / counts[0]) < 4.0:
        raise ValueError("the rate fit needs >= 4 particle counts spanning a factor of 16")


def lln_check(
    report: ExperimentReport,
    function: str | None = None,
    band: tuple[float, float] = (-0.6, -0.4),
) -> LlnCheck:
    """Fit the error-decay rate and check the smallness diagnostic.

    Requires at least four particle counts spanning a factor of 16 (four
    doublings).  Passes when the log2 RMSE / log2 M slope lies in ``band``
    and the median final-step maximum weight fraction strictly decreases
    with the particle count.  Both are read from ``report.aggregates``.
    """
    function = next(iter(report.truths)) if function is None else function
    counts = [e["m"] for e in report.aggregates]
    require_lln_grid(counts)
    rmse = {e["m"]: e[f"rmse[{function}]"] for e in report.aggregates}
    medians = {e["m"]: e["median_final_max_weight_fraction"] for e in report.aggregates}
    slope = float(
        np.polyfit(np.log2(counts), np.log2([rmse[m] for m in counts]), 1)[0]
    )
    in_band = band[0] <= slope <= band[1]
    decreasing = all(
        medians[a] > medians[b] for a, b in zip(counts, counts[1:])
    )
    return LlnCheck(
        slope=slope,
        passed=in_band and decreasing,
        slope_in_band=in_band,
        max_fraction_decreasing=decreasing,
        rmse_by_m=rmse,
        median_max_fraction_by_m=medians,
    )


@dataclass(frozen=True)
class CltCheck:
    var_ratio: float
    ks_stat: float
    ks_p: float
    passed: bool


def require_clt_replicates(n: int) -> None:
    """Raise unless ``n`` replicates are enough for :func:`clt_check`."""
    if n < 200:
        raise ValueError("the CLT check needs at least 200 replicates")


def clt_check(
    report: ExperimentReport,
    sigma2_oracle: float,
    m: int | None = None,
    function: str | None = None,
    ratio_band: tuple[float, float] = (0.8, 1.25),
    min_p: float = 0.01,
) -> CltCheck:
    """Compare scaled errors with the exact asymptotic variance.

    The variance ratio (the ``var_scaled_error`` aggregate at m over
    ``sigma2_oracle``) must fall in ``ratio_band`` and the KS p-value of the
    standardized errors must reach ``min_p``.  ``sigma2_oracle`` must be
    positive: :class:`ExperimentConfig` refuses every function of variance 0.
    """
    function = next(iter(report.truths)) if function is None else function
    if m is None:
        if len(report.aggregates) != 1:
            raise ValueError("specify the particle count when several were run")
        m = report.aggregates[0]["m"]
    errors = report.scaled_errors(m, function)
    require_clt_replicates(errors.size)
    if not sigma2_oracle > 0.0:
        raise ValueError("the CLT check needs a positive oracle variance")
    entry = next(e for e in report.aggregates if e["m"] == m)
    var_ratio = entry[f"var_scaled_error[{function}]"] / sigma2_oracle
    stat, p = ks_test(errors / math.sqrt(sigma2_oracle))
    passed = ratio_band[0] <= var_ratio <= ratio_band[1] and p >= min_p
    return CltCheck(var_ratio=var_ratio, ks_stat=stat, ks_p=p, passed=passed)


# ---------------------------------------------------------------------------
# The residual-scheme counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleResult:
    values: np.ndarray        # the copied-average statistic, one per replicate
    mean_weights: np.ndarray  # per-replicate average weight (tends to 1)


def counterexample_run(m: int, replicates: int, seed: int) -> CounterexampleResult:
    """Reproduce the oscillating deterministic part of residual resampling.

    Each replicate draws m i.i.d. points taking value 1/2 with probability
    2/3 and value 2 with probability 1/3, weights each point by its own
    value, and evaluates the deterministically copied average
    (1/m) sum_i floor(m w_i / W) f(x_i) with f the identity, the floors
    being residual resampling's own allocation.  The atoms of the point
    drawn at 2 sit on either side of an integer expected copy count, so the
    statistic converges in law to a two-point distribution on {2/3, 4/3}
    instead of converging in probability.
    """
    values = np.empty(replicates)
    mean_weights = np.empty(replicates)
    for r in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        draws = np.where(rng.random(m) < 2.0 / 3.0, 0.5, 2.0)
        total = float(np.sum(draws))
        floors = _residual_alloc(draws, total, m).floors
        values[r] = float(np.dot(floors, draws)) / m
        mean_weights[r] = total / m
    return CounterexampleResult(values=values, mean_weights=mean_weights)


def summarize_counterexample(values: np.ndarray, half_width: float = 0.05) -> dict:
    """Mass near the two limit atoms and the tightest width-0.1 window."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    low = float(np.mean(np.abs(values - 2.0 / 3.0) <= half_width))
    high = float(np.mean(np.abs(values - 4.0 / 3.0) <= half_width))
    # the window [v, v + width] starting at each sorted value holds the
    # values up to its right edge's insertion point
    ends = np.searchsorted(values, values + 2.0 * half_width, side="right")
    best = int(np.max(ends - np.arange(n)))
    return {
        "n": int(n),
        "mass_at_low_atom": low,
        "mass_at_high_atom": high,
        "max_window_mass": best / n,
    }
