"""End-to-end certified bounds report for a radial convolution kernel.

Assembles the two-part height-splitting upper bound, the certified lower
bound, and the shifted-symbol norm interval for the radius-2 ball
indicator, then prints the report JSON and the resulting necessity ratio.
The ball indicator is nonnegative, so its lower bound is Herz's exact
norm ``|FT k(i delta(p))|``, rounded down past its rounding error, with
no ball compression run; the slack printed is that rounding.
"""

from treeharmonics.engine import bounds_report, spectral_sup
from treeharmonics.serialize import report_to_json
from treeharmonics.spherical import ball_kernel

kernel = ball_kernel(2, 2)
report = bounds_report(kernel, 1.5, radius=10)
print(report_to_json(report))
print(f"necessity ratio (compression lower / symbol upper): {report.necessity_ratio:.4f}")
print(f"sandwich slack: {report.total_upper - report.compression_lower:.6f}")

# the p = 2 norm is available separately as an exact spectral supremum
print(f"\nexact l2 operator norm of the radius-1 ball indicator: {spectral_sup(ball_kernel(2, 1)):.15f}")
print("(equals 1 + 2*sqrt(2))")
