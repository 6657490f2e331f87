"""Certifying the filter's limit behavior against exact oracles.

Two empirical checks, both fully seeded:

* the error-decay rate: the RMSE of the terminal estimate should halve
  when the particle count quadruples (slope -1/2 in log2-log2);
* the central limit behavior: scaled errors sqrt(M) (estimate - truth),
  standardized by the exact recursion variance, should look standard
  normal.
"""

import math

import numpy as np

from smclimits import (
    DiscreteHMM,
    ExperimentConfig,
    ResamplingPolicy,
    TerminalFunction,
    clt_check,
    lln_check,
    random_likelihood_table,
    run_recursion,
    run_replicates,
)

model = DiscreteHMM(
    initial=[0.5, 0.5],
    transition=[[0.9, 0.1], [0.2, 0.8]],
    likelihoods=random_likelihood_table(4, 2, obs_seed=1289),
)
ind0 = TerminalFunction(name="ind0", kind="indicator", state=0)
policy = ResamplingPolicy(trigger="cv", kappa2=1.0)

# --- error-decay rate --------------------------------------------------------
config = ExperimentConfig(
    model=model, proposal_kind="prior", policy=policy, horizon=4,
    functions=(ind0,), particle_counts=(256, 1024, 4096, 16384),
    replicates=100, seed=42,
)
report = run_replicates(config, workers=1)
check = lln_check(report)
print("particles      RMSE       median max-weight fraction")
for m in sorted(check.rmse_by_m):
    print(f"{m:9d}   {check.rmse_by_m[m]:.6f}   {check.median_max_fraction_by_m[m]:.6f}")
print(f"fitted log2-RMSE slope: {check.slope:.3f}  (Monte Carlo rate is -1/2)")
print()

# --- central limit behavior ---------------------------------------------------
config = ExperimentConfig(
    model=model, proposal_kind="prior", policy=policy, horizon=4,
    functions=(ind0,), particle_counts=(4096,), replicates=400, seed=43,
)
report = run_replicates(config, workers=1)
sigma2 = run_recursion(model, "prior", policy, horizon=4).sigma2(np.array([1.0, 0.0]))
result = clt_check(report, sigma2, 4096, "ind0")
print(f"exact asymptotic variance: {sigma2:.5f}")
print(f"sample variance of scaled errors / exact: {result.var_ratio:.3f}")
print(f"KS statistic {result.ks_stat:.4f}, p-value {result.ks_p:.3f}")
print()

# A quick visual: the standardized errors, bucketed against the normal.
errors = report.scaled_errors(4096, "ind0") / math.sqrt(sigma2)
hist, edges = np.histogram(errors, bins=np.linspace(-3, 3, 13))
print("standardized scaled errors:")
for count, left, right in zip(hist, edges, edges[1:]):
    print(f"  [{left:+.1f},{right:+.1f}) " + "#" * int(80 * count / len(errors)))

# And the negative control: an inflated variance oracle must be rejected.
broken = clt_check(report, 4.0 * sigma2, 4096, "ind0")
print(f"\nnegative control with a 4x oracle: var ratio {broken.var_ratio:.3f} "
      f"-> passed = {broken.passed}")
