"""Norm brackets for convolution kernels on the integers.

Builds a few kernels on the integer line and brackets their l^p
convolution norms.  The one-sign kernel [1, 1] has the exact norm 2 at
every p; the signed kernel [1, 2, -1] is bracketed between
dictionary-trial lower bounds and interpolation upper bounds.  Then the
certified truncation bound is tabulated against the certified lower
bounds of the truncated kernels.
"""

import numpy as np

from treeharmonics.params import tree_params
from treeharmonics.zline import (
    ZKernel,
    convolutor_interval,
    hinf_strip_norm,
    truncate,
    truncation_bound,
    zkernel,
)

for values in ([1.0, 1.0], [1.0, 2.0, -1.0]):
    print(f"kernel {values}:")
    F = zkernel(2, values)
    for p in (1.0, 4.0 / 3.0, 1.5, 2.0):
        iv = convolutor_interval(F, p)
        print(f"  p = {p:<8.6g} [{iv.lower:.9f}, {iv.upper:.9f}]  lower via {iv.lower_method}")

print("\nstrip sup and truncation bounds for a two-sided random kernel:")
rng = np.random.default_rng(2)
G = ZKernel(tree_params(2), -5, rng.normal(size=11) + 1j * rng.normal(size=11))
eps = 0.3
H = hinf_strip_norm(G, eps)
print(f"strip sup on width {eps}: {H:.6f}")
print("   J   certified lower     truncation bound")
for J in range(0, 7):
    iv = convolutor_interval(truncate(G, J), 1.5)
    bound = truncation_bound(G, J, eps, 1.5)
    print(f"   {J}   {iv.lower:16.9f}   {bound:16.9f}")
