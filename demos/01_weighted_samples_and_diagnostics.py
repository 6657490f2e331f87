"""Weighted samples and their degeneracy diagnostics.

A weighted sample is the universal currency here: points plus nonnegative
weights, with self-normalized estimates.  Everything below needs only the
weights and the values of f at the points, so a WeightedSample holds just
the weights.  This script walks through the basic diagnostics and shows
why they are scale-free.
"""

import numpy as np

from smclimits import WeightedSample

rng = np.random.default_rng(0)

# A tilted sample: five points with very unequal weights.
x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
sample = WeightedSample([0.05, 0.1, 0.2, 0.4, 3.0])
# Estimates take f as its values at the points: here f(x) = x.

print("weighted mean of f(x) = x:", sample.estimate(x))
print("effective sample size:    ", sample.ess(), "out of", sample.size)
print("squared CV of weights:    ", sample.cv2())
print("largest weight fraction:  ", sample.max_weight_fraction())
print()

# The identity ess * (1 + cv2) = M holds for every weight vector.
print("ess * (1 + cv2) =", sample.ess() * (1 + sample.cv2()), "= M =", sample.size)
print()

# Every diagnostic is invariant under a common rescaling of the weights:
# only the normalized weights matter.
for scale in (1e-6, 1.0, 1e6):
    scaled = WeightedSample(sample.weights * scale)
    print(f"scale {scale:>8.0e}: mean {scaled.estimate(x):.6f} "
          f"ess {scaled.ess():.4f} cv2 {scaled.cv2():.4f}")
print()

# Equal weights sit at one extreme (ess = M), a single surviving weight at
# the other (ess = 1).
print("equal weights, M=8:  ess =", WeightedSample(np.ones(8)).ess())
print("one survivor, M=8:   ess =",
      WeightedSample([0, 0, 0, 1.0, 0, 0, 0, 0]).ess())

# Dividing by the total gives weights of total mass one without touching
# any estimate.
normalized = WeightedSample(sample.weights / sample.total)
print("\nnormalized: total =", normalized.total,
      " mean unchanged:", normalized.estimate(x))
