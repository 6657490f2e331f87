"""Sequential Monte Carlo transformations with exact oracles for their limits.

The library provides the two elementary particle transformations
(mutation through a proposal kernel, unbiased resampling), an adaptive
particle filter for state-space smoothing built from them, and the exact
machinery needed to certify their large-population behavior: enumeration
oracles for conditional moments, the asymptotic-variance recursion of the
adaptive filter, and a seeded replication harness for law-of-large-numbers
and central-limit checks.
"""

from ._version import __version__
from .resampling import (
    MULTINOMIAL,
    RESIDUAL,
    DiscreteDistribution,
    ResamplingPolicy,
    conditional_mean,
    conditional_variance,
    resample,
    residual_counts,
    residual_deterministic_limit,
    residual_limit_weight,
    residual_regularity_check,
)
from .state_space import (
    OPTIMAL,
    PRIOR,
    RESAMPLE_MOVE,
    DiscreteHMM,
    LinearGaussianSSM,
    SmcTrace,
    StepKernel,
    filter_marginal,
    random_likelihood_table,
    smc_init,
    smc_run,
    smc_step,
    step_kernel,
)
from .variance_oracle import (
    VarianceRecursionState,
    recursion_init,
    recursion_step,
    run_recursion,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    TerminalFunction,
    clt_check,
    counterexample_run,
    ks_test,
    lln_check,
    normal_cdf,
    run_replicates,
    summarize_counterexample,
)
from .weighted_sample import WeightedSample, equally_weighted

__all__ = [
    "__version__",
    "MULTINOMIAL",
    "RESIDUAL",
    "DiscreteDistribution",
    "ResamplingPolicy",
    "conditional_mean",
    "conditional_variance",
    "resample",
    "residual_counts",
    "residual_deterministic_limit",
    "residual_limit_weight",
    "residual_regularity_check",
    "OPTIMAL",
    "PRIOR",
    "RESAMPLE_MOVE",
    "DiscreteHMM",
    "LinearGaussianSSM",
    "SmcTrace",
    "StepKernel",
    "filter_marginal",
    "random_likelihood_table",
    "smc_init",
    "smc_run",
    "smc_step",
    "step_kernel",
    "VarianceRecursionState",
    "recursion_init",
    "recursion_step",
    "run_recursion",
    "ExperimentConfig",
    "ExperimentReport",
    "TerminalFunction",
    "clt_check",
    "counterexample_run",
    "ks_test",
    "lln_check",
    "normal_cdf",
    "run_replicates",
    "summarize_counterexample",
    "WeightedSample",
    "equally_weighted",
]
