"""Mutation: moving particles through a proposal kernel and reweighting.

The mutation step draws offspring from a proposal kernel R and multiplies
each weight by W = dL/dR, where L is the target kernel.  On a two-state
model every proposal kind is one ``StepKernel``: its ``mutate`` moves a
whole population at once, and its ``factors`` give R(x, W f) exactly as a
matrix product, so the defining unbiasedness property can be checked
against Monte Carlo.  The
last table shows why the likelihood-tilted ("optimal") proposal is worth
having: its weights spread less than the prior's.
"""

import numpy as np

from smclimits import DiscreteHMM, step_kernel
from smclimits.weighted_sample import cv2_of_weights

model = DiscreteHMM(
    initial=[0.5, 0.5],
    transition=[[0.9, 0.1], [0.2, 0.8]],
    likelihoods=[[1.0, 1.0], [2.0, 0.3]],
)
rng = np.random.default_rng(1)
m = 200_000
parents = rng.integers(0, 2, size=m)[:, None]  # each parent's last coordinate
f = np.array([0.0, 1.0])  # f(y) = 1 when the new coordinate is state 1

# --- exact unbiasedness ------------------------------------------------------
# The conditional mean of an offspring's W * f, given its parent x, is the
# target kernel applied to f: R(x, W f) = (Q @ D @ f)[x], with Q, D = factors(1).
print("kind      parent   mean of W*f over offspring   R(x, W f) exact")
kernels = {kind: step_kernel(model, 2, kind) for kind in ("prior", "optimal")}
for kind, kernel in kernels.items():
    carried, log_w = kernel.mutate(parents, rng)
    wf = np.exp(log_w) * f[carried[:, -1]]
    q, d = kernel.factors(1)
    exact = q @ d @ f
    for x in (0, 1):
        mine = parents[:, 0] == x
        print(f"{kind:8s}  {x:6d}   {wf[mine].mean():26.4f}   {exact[x]:15.4f}")
print()

# --- weight spread: prior vs optimal -----------------------------------------
# Both proposals target the same law; the optimal one folds the likelihood
# into the draw, so its weights depend on the parent only and spread less.
print("kind      CV^2 of the weights   W values seen")
for kind, kernel in kernels.items():
    _, log_w = kernel.mutate(parents, rng)
    weights = np.exp(log_w)
    print(f"{kind:8s}  {cv2_of_weights(weights):19.4f}   {np.unique(weights.round(4))}")
