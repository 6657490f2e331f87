"""Multinomial vs deterministic-plus-residual resampling.

Both schemes are unbiased: conditionally on the input, the output average
of any function has the input weighted estimate as its mean.  They differ
in conditional variance, where the residual scheme never loses, and in
their large-population behavior, where the residual scheme's limit is
governed by the residual-mass weight 1 - floor(x)/x -- provided no atom's
expected copy count x sits exactly on an integer.  The final section
reproduces what goes wrong when one does.

Selection sees the input only through its weights: the moment functions
take a weights-only WeightedSample and f as its values at the points,
f_values, of shape (m,) for one function, or (k, m) for k functions in one
call.  A draw is a vector of indices into the input, from resample_indices.
"""

import numpy as np

from smclimits import (
    MULTINOMIAL,
    RESIDUAL,
    WeightedSample,
    conditional_mean,
    conditional_variance,
    counterexample_run,
    residual_limit_weight,
    summarize_counterexample,
)
from smclimits.resampling import resample_indices

rng = np.random.default_rng(2)

# --- conditional moments ---------------------------------------------------
f = np.array([0.0, 1.0, 2.0])  # the points, and f(x) = x as its values there
sample = WeightedSample([0.55, 0.25, 0.2])
m_out = 10

floors = np.floor(m_out * sample.weights / sample.total).astype(int)
print("guaranteed copies:", floors.tolist(), " residual slots:", m_out - floors.sum())
for scheme in (MULTINOMIAL, RESIDUAL):
    idx = resample_indices(sample.weights, m_out, scheme, rng)
    print(f"{scheme:12s} draw: indices {idx.tolist()}")
for scheme in (MULTINOMIAL, RESIDUAL):
    mean = conditional_mean(scheme, sample, f, m_out)
    var = conditional_variance(scheme, sample, f, m_out)
    print(f"{scheme:12s} conditional mean {mean:.6f} variance {var:.6f}")
print("input weighted estimate:   ", sample.estimate(f))
# several functions at once: x and x^2 as two rows, one residual allocation
print("residual conditional means of x and x^2:",
      conditional_mean(RESIDUAL, sample, np.vstack([f, f * f]), m_out))
print()

# --- the variance ordering, over random inputs ------------------------------
worst = -np.inf
for _ in range(500):
    m = int(rng.integers(2, 7))
    values = rng.normal(size=m)
    ws = WeightedSample(np.exp(rng.uniform(-3, 3, size=m)))
    k = int(rng.integers(1, 7))
    worst = max(worst, conditional_variance(RESIDUAL, ws, values, k)
                - conditional_variance(MULTINOMIAL, ws, values, k))
print("largest residual-minus-multinomial variance gap over 500 inputs:", worst)
print("(never positive: the residual scheme cannot lose)")
print()

# --- the residual-mass weight ----------------------------------------------
print("residual-mass weight 1 - floor(x)/x:")
for x in (0.4, 0.9, 1.5, 2.0, 2.5, 3.0, 6.28):
    print(f"  x = {x:>5.2f}  ->  {residual_limit_weight(x):.4f}")
print("(1 below one, 0 exactly at integers)")
print()

# --- the integer-atom counterexample ----------------------------------------
# Points at 1/2 (prob 2/3) and 2 (prob 1/3), weighted by their own value:
# the point at 2 has expected copy count exactly 2, and the deterministic
# part of the allocation flips between 1 and 2 copies depending on the
# sign of a vanishing fluctuation.  The copied average then converges in
# law to the two-point distribution on {2/3, 4/3} -- not in probability.
result = counterexample_run(m=50_000, replicates=300, seed=11)
stats = summarize_counterexample(result.values)
print("counterexample: copied-average statistic over 300 replicates")
print("  mass within 0.05 of 2/3:", stats["mass_at_low_atom"])
print("  mass within 0.05 of 4/3:", stats["mass_at_high_atom"])
print("  largest mass in any 0.1-wide window:", stats["max_window_mass"])

hist, edges = np.histogram(result.values, bins=np.linspace(0.5, 1.5, 21))
for count, left, right in zip(hist, edges, edges[1:]):
    bar = "#" * int(60 * count / hist.max()) if count else ""
    print(f"  [{left:.2f},{right:.2f}) {bar}")
