"""Abel transform: dual evaluation routes and the Fourier factorization.

Runs the closed-form Abel transform against the cell-by-cell census route
(exact on rational inputs), inverts by back-substitution, and checks that
the integer Fourier transform of the Abel sequence reproduces the
spherical transform of the original kernel, taken as the sum of the
kernel against the spherical functions over the spheres.
"""

from fractions import Fraction

import numpy as np

from treeharmonics.abel import (
    abel_bruteforce,
    abel_forward,
    abel_inverse,
    horocycle_slice_sum,
    weyl_residual,
)
from treeharmonics.params import torus_grid, tree_params
from treeharmonics.spherical import ball_kernel, sphere_sizes, spherical_function
from treeharmonics.tree import ball_geometry
from treeharmonics.zline import fourier_z

Q = 2
kernel = ball_kernel(Q, 2)
seq = abel_forward(kernel)  # a kernel on the integers, stored on [-2, 2]
print("Abel sequence of the radius-2 ball indicator (j, a_j):")
for j, a in zip(seq.indices, seq.values):
    print(f"   {j:+d}  {a.real:.12f}")
print("evenness defect:", weyl_residual(seq))

back = abel_inverse(seq)
print("inverse recovers the kernel:", np.abs(back.values - kernel.values).max())

# census route: exact rational agreement with the collapsed geometric series
ball = ball_geometry(Q, 9)
vals = [Fraction(1), Fraction(1), Fraction(1)]
for j in (-3, -1, 0, 2):
    S = horocycle_slice_sum(ball, vals, j)
    closed = abel_bruteforce(ball, kernel, j)
    print(f"slice sum at height {j:+d}: census {S} -> coefficient {closed.real:.12f}")

# factorization: Fourier transform of the Abel sequence = sum of the kernel
# against the spherical functions, sphere by sphere
params = tree_params(Q)
grid = torus_grid(params, 64)
lhs = fourier_z(seq, grid)
d = np.arange(3)
rhs = spherical_function(params, grid[:, None], d[None, :]) @ (sphere_sizes(params, 2) * kernel.values)
print("factorization residual on a 64-point grid:", float(np.abs(lhs - rhs).max()))
