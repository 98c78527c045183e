"""Walk through the projected-gradient estimator on a quadratic bowl.

Three things to see:
  1. a single paired-forward estimate is the gradient's projection onto
     the random direction z (exact on a quadratic),
  2. averaging proj_grad * z over many seeds recovers the full gradient,
  3. more queries per step trade forward passes for estimator variance.

Run: python3 demos/estimator_basics.py
"""

import numpy as np

from zobench import quadratic_bowl
from zobench.samplers import FULL, sample_for_tensor
from zobench.streams import GaussianStream
from zobench.zo import rge_proj_grad

D = 8

model = quadratic_bowl(np.ones(D))  # L(theta) = 0.5 ||theta||^2
params = model.init(seed=1)
theta = params["theta"].copy()

print("single-draw projections (proj_grad vs theta . z):")
for seed in range(3):
    g = rge_proj_grad(model, params, None, seed, 1e-3).proj_grad
    z = sample_for_tensor(GaussianStream(seed, substream=0), (D,), FULL)
    print(f"  seed {seed}: proj_grad = {g:+.6f}, theta.z = {theta @ z:+.6f}")

n = 5000
acc = np.zeros(D)
for seed in range(n):
    z = sample_for_tensor(GaussianStream(seed, substream=0), (D,), FULL)
    g = rge_proj_grad(model, params, None, seed, 1e-3).proj_grad
    acc += g * z
mc = acc / n
print(f"\nMonte-Carlo gradient from {n} seeds vs the true gradient:")
print("  estimate:", np.round(mc, 3))
print("  true:    ", np.round(theta, 3))

print("\nvariance of the mean-mode q-query estimate (500 trials each):")
for q in (1, 2, 4, 8):
    trials = []
    for t in range(500):
        ghat = np.zeros(D)
        for j in range(q):
            seed = t * 64 + j * 8 + q
            z = sample_for_tensor(GaussianStream(seed, substream=0), (D,), FULL)
            g = rge_proj_grad(model, params, None, seed, 1e-3).proj_grad
            ghat += g * z
        trials.append(ghat / q)
    var = np.array(trials).var(axis=0).mean()
    print(f"  q={q}: mean per-coordinate variance {var:.3f} "
          f"({2 * q} forwards per step)")
