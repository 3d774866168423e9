"""Layered-convolution transference and the unbounded-truncation witness.

Runs a seeded batch of transference inequalities (the negative-height half
summed along up-then-down walks on an explicit ball, against the shell
series of row norms) and then
tabulates the growth of the p = 2 lower bound for truncated reciprocal
kernels, whose divergence shows one-sided truncation is not uniformly
bounded.
"""

import numpy as np

from treeharmonics.engine import transference_check
from treeharmonics.spherical import radial_kernel
from treeharmonics.tree import ball_geometry
from treeharmonics.zline import hilbert_witness

rng = np.random.default_rng(3)
ball = ball_geometry(2, 7)
passed = 0
worst = 0.0
for i in range(20):
    D = int(rng.integers(0, 4))
    kernel = radial_kernel(2, rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1))
    f = rng.normal(size=ball.size) + 1j * rng.normal(size=ball.size)
    f[ball.depth > ball.radius - D] = 0.0
    rec = transference_check(kernel, ball, f, 1.5)
    passed += rec["ok"]
    if rec["rhs"] > 0:
        worst = max(worst, rec["lhs"] / rec["rhs"])
print(f"transference: {passed}/20 instances satisfied; tightest lhs/rhs ratio {worst:.3f}")

print("\ntruncated reciprocal kernel (1/d on [1, N]): spectral lower bound vs log N")
print("     N      lower       log N")
for n in (64, 256, 1024, 4096):
    lower, log_n = hilbert_witness(2, n)
    print(f"   {n:5d}   {lower:.6f}   {log_n:.6f}")
