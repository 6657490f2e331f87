"""The adaptive particle filter on a two-state model.

Particles are state paths; each step extends them through a proposal
kernel, reweights by the observation likelihood, and resamples only when
the squared coefficient of variation of the weights reaches a threshold.
The exact recursion predicts both the per-step weight skewness and the
resampling decisions; this script puts the two side by side, and shows
the weight degeneracy that builds up when resampling is switched off.
"""

import numpy as np

from smclimits import (
    DiscreteHMM,
    ResamplingPolicy,
    exact_joint_smoothing,
    random_likelihood_table,
    run_recursion,
    smc_run,
)

HORIZON = 5
model = DiscreteHMM(
    initial=[0.5, 0.5],
    transition=[[0.9, 0.1], [0.2, 0.8]],
    likelihoods=random_likelihood_table(HORIZON, 2, obs_seed=1289),
)

# --- adaptive run vs the exact recursion ------------------------------------
policy = ResamplingPolicy(trigger="cv", kappa2=1.0)
trace = smc_run(model, "prior", policy, m=16_384, seed=7)
state = run_recursion(model, "prior", policy)

print(f"threshold kappa^2 = {policy.kappa2}")
print("step   CV^2 (filter)   CV^2 limit (exact)   resampled   indicator")
for rec, step in zip(trace.records[1:], state.steps[1:]):
    print(f"{rec.step:4d}   {rec.cv2:13.4f}   {step.cv2_limit:18.4f}   "
          f"{str(rec.resampled):>9s}   {step.epsilon:9d}")
print()

# --- the terminal estimate against the exact smoothing law ------------------
# the estimate takes f at the particles: look the terminal states up in f's table
table = np.array([1.0, 0.0])
truth = exact_joint_smoothing(model, HORIZON).expect_terminal(table)
est = trace.terminal_estimate(table[trace.current.paths[:, -1]])
print(f"P(terminal state = 0 | record): filter {est:.5f} vs exact {truth:.5f}")
print()

# --- what happens without resampling ----------------------------------------
# With skewed likelihoods and no rejuvenation the weights degrade steadily;
# the effective sample size is the canary.  (A diagnostic, not a theorem:
# on a short horizon the decay is visible but not dramatic.)
skewed = DiscreteHMM(
    initial=[0.5, 0.5],
    transition=[[0.9, 0.1], [0.2, 0.8]],
    likelihoods=[[3.0, 0.3]] * 8,
)
never = smc_run(skewed, "prior", ResamplingPolicy(trigger="never"), m=4096, seed=3)
print("no-resampling run on a skewed model: per-step ESS / M")
for rec in never.records:
    frac = rec.ess / 4096
    print(f"  step {rec.step}: {frac:6.3f} " + "#" * int(50 * frac))
