"""Certified two-sided bounds for radial convolutors on the tree.

The upper bound splits a radial kernel by the sign of the relative height
in horocyclic coordinates.  The negative-height half is controlled shell
by shell through a contour-shifted reconstruction profile on the integers
(:func:`line_profile`) and the truncation machinery of :mod:`.zline`; the
nonnegative-height half by a weighted Abel sum.  The lower bound
compresses the convolutor to a finite ball and certifies attained
Rayleigh quotients.  :func:`bounds_report` assembles both sides and
*asserts* the sandwich ``compression_lower <= total_upper`` — a violation
is a soundness bug, not a data condition, and raises
:class:`SoundnessError`.

``p = 2`` is excluded throughout the pipeline: there the transform theory
gives the exact operator norm directly, exposed separately as
:func:`spectral_sup`.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .params import (
    DomainError,
    ScopeError,
    check_exponent,
    check_grid,
    dual_exponent,
    strip_halfwidth,
    torus_grid,
)
from .spherical import (
    RadialKernel,
    c_inverse_line_sup,
    c_inverse_shifted,
    sphere_sizes,
)
from .abel import AbelSequence, abel_forward
from .tree import opnorm_lower, shell_masses
from .zline import (
    DICTIONARY_VERSION,
    ZKernel,
    convolutor_interval,
    convolutor_upper,
    fourier_z,
    inverse_fourier_z,
    lp_norm,
)


class SoundnessError(RuntimeError):
    """A certified lower bound exceeded a certified upper bound."""


_SCOPE_MESSAGE = (
    "p = 2 is outside the two-sided bounds pipeline; the transform is an "
    "isometry there up to the Plancherel weight — use spectral_sup for the "
    "exact L2 operator norm"
)


def line_profile(kernel, p, n=512):
    """Contour-shifted reconstruction profile ``phi`` on the integers.

    For ``p in [1, 2)`` the shifted symbol is evaluated *algebraically* —
    the Abel coefficients ``a_j`` are reweighted to ``a_j q^{j delta(p)}``
    by :meth:`~treeharmonics.abel.AbelSequence.to_zkernel`, which is exact
    for finitely supported kernels — then multiplied by the regularized
    reciprocal c-function on the shifted line and inverted by an
    ``n``-point trapezoid sum.  The result, returned as a two-sided kernel
    on ``[-L, L]``, satisfies ``phi(d) = q^{d/p} k(d)`` for
    ``0 <= d <= D``, vanishes for ``D < d <= L``, and decays like
    ``q^{2 delta(p) l}`` into negative indices.  The half-width ``L`` is
    the kernel radius plus a 40-e-folding tail, so the discarded tail is
    below ``1e-12`` of the sup bound.  A profile that overflows float64
    raises :class:`~treeharmonics.params.DomainError`.

    Parameters
    ----------
    kernel : RadialKernel
        Finitely supported radial kernel.
    p : float
        Exponent in ``[1, 2)``; larger values are rejected (reach them
        through duality in the bound assembly).
    n : int
        Trapezoid grid size, a power of two, at least ``2 L + 2`` so that
        periodic aliasing of the profile window is below double precision.
    """
    kernel = kernel.trimmed()
    params = kernel.params
    p = check_exponent(p)
    if p >= 2.0:
        raise DomainError(
            f"profile is defined for p in [1, 2), got p={p:g}; "
            "handle p > 2 by duality before calling"
        )
    delta = strip_halfwidth(p)
    L = kernel.radius + math.ceil(40.0 / (2.0 * delta * params.log_q))
    n = check_grid(n)
    if n < 2 * L + 2:
        raise DomainError(
            f"grid n={n} too small for half-width L={L}: need n >= 2L+2 = {2 * L + 2} "
            "to push aliasing below double precision (raise the grid)"
        )
    shifted = abel_forward(kernel).to_zkernel(delta)
    s = torus_grid(params, n)
    with np.errstate(over="ignore", invalid="ignore"):
        g = fourier_z(shifted, s) * c_inverse_shifted(params, s, delta)
        ell = np.arange(-L, L + 1)
        vals = 2.0 * params.plancherel_const * params.period * inverse_fourier_z(g, ell, params)
    if not np.isfinite(vals).all():
        raise DomainError("the line profile overflows float64: the kernel values are too large")
    return ZKernel(params, -L, vals)


def profile_strip_constant(kernel, p):
    """Certified sup of the profile's symbol over the analysis strip.

    The profile's symbol is ``2 c_G tau`` times the shifted symbol times
    the regularized reciprocal c-function, analytic between the boundary
    lines ``Im z = +-delta(p)`` of the original variable.  Its sup over
    the strip is bounded — exactly, with no grid — by the coefficient
    ``l1`` of the shifted Abel coefficients times the closed-form line sup
    :func:`~treeharmonics.spherical.c_inverse_line_sup`, maximized over
    the two boundary lines.  Every kernel coefficient obeys
    ``|phi(l)| <= H`` and the negative tail ``|phi(l)| <= H q^{2 delta l}``
    with this constant ``H``.
    """
    kernel = kernel.trimmed()
    p = check_exponent(p)
    if p >= 2.0:
        raise DomainError(f"strip constant is defined for p in [1, 2), got p={p:g}")
    params = kernel.params
    delta = strip_halfwidth(p)
    # magnitudes first, |a_j| q^{j delta}: the rounding order of the stated bound
    coeff_l1 = AbelSequence(params, np.abs(abel_forward(kernel).values)).to_zkernel(delta).l1()
    line_sup = max(c_inverse_line_sup(params, delta), c_inverse_line_sup(params, -delta))
    return 2.0 * params.plancherel_const * params.period * coeff_l1 * line_sup


def negative_height_bound(kernel, p, n=512):
    """Certified bound for the negative-relative-height half of the kernel.

    Shell ``m`` of the horocyclic decomposition contributes the convolutor
    norm on the integers of the profile truncated to ``[2m+1, oo)``,
    weighted by ``mu_m q^{-2m/p}``.  Each truncation is bounded by
    ``U + (1/(q^{2 delta} - 1) + 2m + 1) H`` with ``U`` the full-profile
    convolutor bound and ``H`` the strip constant of
    :func:`profile_strip_constant`; since that is affine in ``m``, the
    shell series collapses to an exact geometric closed form (no
    truncation of the series itself).

    Kernels supported at the origin only have an identically vanishing
    negative half, reported as exactly ``0.0``.
    """
    kernel = kernel.trimmed()
    p = check_exponent(p)
    if not 1.0 < p < 2.0:
        raise DomainError(f"negative-height bound requires p in (1, 2), got p={p:g}")
    if kernel.radius == 0:
        return 0.0
    params = kernel.params
    q = params.q
    delta = strip_halfwidth(p)
    eps = 2.0 * delta
    phi = line_profile(kernel, p, n=n)
    upper, _ = convolutor_upper(phi, p)
    strip_sup = profile_strip_constant(kernel, p)
    tail_const = 1.0 / (q ** eps - 1.0)
    alpha = upper + (tail_const + 1.0) * strip_sup
    x = q ** (1.0 - 2.0 / p)
    return alpha + (1.0 - 1.0 / q) * (
        alpha * x / (1.0 - x) + 2.0 * strip_sup * x / (1.0 - x) ** 2
    )


def nonnegative_height_bound(kernel, p):
    """Weighted Abel sum bounding the nonnegative-relative-height half.

    Returns ``sum_{j >= 0} q^{-j delta(p)} (Abel |k|)(j)``, the horocycle
    masses of the absolute kernel discounted by the height weight; finite
    for every finitely supported kernel and nondecreasing in ``p`` on
    ``(1, 2)`` for fixed nonnegative ``k``.
    """
    kernel = kernel.trimmed()
    p = check_exponent(p)
    if not 1.0 < p < 2.0:
        raise DomainError(f"nonnegative-height bound requires p in (1, 2), got p={p:g}")
    params = kernel.params
    delta = strip_halfwidth(p)
    absk = RadialKernel(params, np.abs(kernel.values))
    seq = abel_forward(absk)
    terms = [
        params.qpow(-j * delta) * seq.at(j).real for j in range(seq.support_radius + 1)
    ]
    return math.fsum(terms)


def spectral_sup(kernel):
    """Exact-at-``p=2`` operator norm: sup of the symbol on the real line."""
    value, _ = convolutor_upper(abel_forward(kernel.trimmed()).to_zkernel(), 2.0)
    return value


def tree_norm_upper(kernel, p, n=512):
    """Certified upper bound for the ``L^p`` convolutor norm on the tree.

    Returns ``(total, step1, step2)``.  At ``p = 1`` (and ``p = inf``) the
    bound is the exact tree ``l1`` norm and the step fields are ``None``;
    for ``p in (1, 2)`` it is the two-part height splitting
    :func:`negative_height_bound` + :func:`nonnegative_height_bound`; for
    ``p > 2`` everything is computed at the dual exponent, which carries
    the same norm.  ``p = 2`` is out of scope.
    """
    p = check_exponent(p)
    if p == 2.0:
        raise ScopeError(_SCOPE_MESSAGE)
    if p == 1.0 or math.isinf(p):
        return kernel.l1_on_tree(), None, None
    pe = p if p < 2.0 else dual_exponent(p)
    step1 = negative_height_bound(kernel, pe, n=n)
    step2 = nonnegative_height_bound(kernel, pe)
    return step1 + step2, step1, step2


def tree_norm_lower(kernel, p, radius=None):
    """Certified lower bound by compression to a ball of the given radius.

    Every reported value is an attained Rayleigh quotient of the exact
    ball convolution of a radial trial function, computed on the radial
    quotient of the ball by :func:`~treeharmonics.tree.opnorm_lower`,
    hence a true lower bound for the convolutor norm.  Returns
    ``(value, method)``.  The ball must strictly contain the kernel
    support (``radius >= D + 1`` so the central column is complete); the
    default ``D + 3`` leaves room for window trials.
    """
    kernel = kernel.trimmed()
    p = check_exponent(p)
    D = kernel.radius
    if radius is None:
        radius = D + 3
    radius = int(radius)
    if radius < D + 1:
        raise DomainError(
            f"compression radius {radius} must be at least D+1 = {D + 1} "
            "so the central column is complete"
        )
    return opnorm_lower(kernel, p, radius)


def symbol_norm_report(kernel, p, seed=0):
    """Two-sided norm interval for the shifted symbol's coefficients on ℤ.

    Builds the kernel ``(a_j q^{j delta(p)})_j`` from the Abel
    coefficients (:meth:`~treeharmonics.abel.AbelSequence.to_zkernel`) and
    returns ``(interval, weyl_residual)`` where the interval is the
    certified :func:`~treeharmonics.zline.convolutor_interval` at ``p``
    and the residual is the evenness defect of the coefficients (exactly
    ``0`` for every radial kernel).  ``p = 2`` is out of scope.
    """
    kernel = kernel.trimmed()
    p = check_exponent(p)
    if p == 2.0:
        raise ScopeError(_SCOPE_MESSAGE)
    seq = abel_forward(kernel)
    interval = convolutor_interval(seq.to_zkernel(strip_halfwidth(p)), p, seed=seed)
    return interval, seq.weyl_residual


# ---------------------------------------------------------------------------
# Horocyclic splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HorocyclicKernel:
    """One height-sign half of a radial kernel in horocyclic coordinates.

    Shell ``m`` (mass ``mu_m``) carries the row ``j -> k(max(2m - j, j))``
    masked to ``j >= 0`` (``sign = +1``) or ``j <= -1`` (``sign = -1``);
    :meth:`row` returns the unweighted masked row as a kernel on the
    integers.  The negative half is empty beyond shell ``(D - 1) / 2``.
    """

    params: object
    kernel: RadialKernel
    sign: int
    p: float

    @property
    def max_shell(self):
        D = self.kernel.radius
        return D if self.sign > 0 else max((D - 1) // 2, -1)

    def row(self, m):
        m = int(m)
        if m < 0:
            raise DomainError(f"shell index must be >= 0, got {m}")
        k = self.kernel
        D = k.radius
        if self.sign > 0:
            j = np.arange(0, D + 1)
            d = np.maximum(2 * m - j, j)
            vals = np.where(d <= D, k.values[np.minimum(d, D)], 0.0)
            return ZKernel(self.params, 0, vals.astype(complex))
        lo = 2 * m - D
        if lo > -1:
            return ZKernel(self.params, 0, np.zeros(1, dtype=complex))
        j = np.arange(lo, 0)
        return ZKernel(self.params, lo, k.values[2 * m - j].astype(complex))


def split_kernel(kernel, p):
    """Split a radial kernel into its height-sign halves, ``p in [1, 2)``."""
    kernel = kernel.trimmed()
    p = check_exponent(p)
    if p >= 2.0:
        raise DomainError(f"height splitting is performed for p in [1, 2), got p={p:g}")
    plus = HorocyclicKernel(kernel.params, kernel, 1, p)
    minus = HorocyclicKernel(kernel.params, kernel, -1, p)
    return plus, minus


def haar_identity_check(plus, minus):
    """Residual of the shell reassembly against the whole-tree sum.

    Reassembling both halves with the counting weights ``mu_m q^{-j}``
    must reproduce ``sum_x k(|x|)`` exactly; the absolute difference is
    returned and should be at rounding level.
    """
    if plus.kernel is not minus.kernel or plus.sign <= 0 or minus.sign > 0:
        raise DomainError("expected the two halves of one split kernel, (plus, minus)")
    k = plus.kernel
    params = k.params
    D = k.radius
    masses = shell_masses(params.q, D)
    total = 0.0 + 0.0j
    for m in range(D + 1):
        for half in (plus, minus):
            row = half.row(m)
            j = row.indices
            total += masses[m] * np.sum(row.values * params.qpow(-j.astype(float)))
    direct = complex(np.sum(k.values * sphere_sizes(params, D)))
    return abs(total - direct)


# ---------------------------------------------------------------------------
# Transference on explicit balls
# ---------------------------------------------------------------------------

def transference_check(kernel, ball, f, p):
    """Verify the layered-convolution inequality on an explicit ball.

    ``lhs`` applies the negative-height half of the kernel to ``f`` —
    ``u(x) = sum_y f(y) k(d(x, y)) 1[h(y) > h(x)]`` computed exactly,
    height layer by height layer, through the ball's sphere-sum
    convolution — and takes its ``l^p`` norm.  ``rhs`` is the shell-series
    bound ``||f||_p sum_m mu_m q^{-2m/p} ||row_m||`` with
    ``row_m(u) = q^{u/p} k(u)`` supported on ``u >= 2m + 1`` and the row
    norms certified by :func:`~treeharmonics.zline.convolutor_upper`.
    Requires ``f`` to vanish outside the interior window ``B_{R-D}`` so
    every layer convolution is exact on the ball.

    Returns ``{"lhs": ..., "rhs": ..., "ok": ...}`` with
    ``ok = lhs <= rhs + 1e-12 max(1, rhs)``.
    """
    kernel = kernel.trimmed()
    p = check_exponent(p)
    if p >= 2.0:
        raise DomainError(f"transference check runs at p in [1, 2), got p={p:g}")
    params = kernel.params
    if params.q != ball.params.q:
        raise DomainError("kernel and ball live on trees of different degree")
    D = kernel.radius
    window = ball.radius - D
    if window < 0:
        raise DomainError(
            f"kernel radius {D} exceeds ball radius {ball.radius}: no interior window"
        )
    f = np.asarray(f, dtype=complex)
    if f.shape != (ball.size,):
        raise DomainError(f"f must be a vector of length {ball.size}, got shape {f.shape}")
    if np.any(f[ball.depth > window] != 0):
        raise DomainError(
            f"support violation: f must vanish outside the interior window "
            f"of radius {window}"
        )
    h = ball.height
    u = np.zeros(ball.size, dtype=complex)
    for t in np.unique(h):
        layer = f * (h > t)
        if not np.any(layer):
            continue
        mask = h == t
        u[mask] = ball.convolve(kernel, layer)[mask]
    lhs = lp_norm(u, p)

    max_shell = (D - 1) // 2
    masses = shell_masses(params.q, max(max_shell, 0))
    series = 0.0
    for m in range(max_shell + 1):
        uvals = np.arange(2 * m + 1, D + 1)
        row = ZKernel(params, 2 * m + 1, kernel.values[uvals] * params.qpow(uvals / p))
        row_norm, _ = convolutor_upper(row, p)
        series += masses[m] * params.qpow(-2.0 * m / p) * row_norm
    rhs = float(lp_norm(f, p) * series)
    ok = bool(lhs <= rhs + 1e-12 * max(1.0, rhs))
    return {"lhs": lhs, "rhs": rhs, "ok": ok}


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Assembled two-sided bounds for one ``(kernel, p, R)`` run."""

    q: int
    p: float
    R: int
    step1_upper: object
    step2_upper: object
    total_upper: float
    compression_lower: float
    symbol_lower: float
    symbol_upper: float
    weyl_residual: float
    grid_N: int
    dictionary_version: str

    @property
    def necessity_ratio(self):
        """Empirical ratio compression_lower / symbol_upper (report-only)."""
        if self.symbol_upper > 0.0:
            return self.compression_lower / self.symbol_upper
        return math.inf if self.compression_lower > 0.0 else 0.0

    def to_json_dict(self):
        return asdict(self)


def bounds_report(kernel, p, radius=None, seed=0, n=512):
    """Run both sides of the bounds pipeline and assert the sandwich.

    Assembles the height-splitting upper bound, the ball-compression
    lower bound at the given radius (default ``D + 3``), and the shifted
    symbol's norm interval into a :class:`BoundsReport`.  ``seed`` feeds
    only the symbol's trial dictionary; the compression is deterministic.
    A certified lower bound exceeding the certified upper bound (beyond
    rounding slack), or either side being NaN, raises
    :class:`SoundnessError`.
    """
    kernel = kernel.trimmed()
    p = check_exponent(p)
    if p == 2.0:
        raise ScopeError(_SCOPE_MESSAGE)
    if radius is None:
        radius = kernel.radius + 3
    radius = int(radius)
    total, step1, step2 = tree_norm_upper(kernel, p, n=n)
    lower, _ = tree_norm_lower(kernel, p, radius=radius)
    interval, weyl = symbol_norm_report(kernel, p, seed=seed)
    if not lower <= total + 1e-10 * max(1.0, total):
        raise SoundnessError(
            f"certified lower bound {lower!r} exceeds certified upper bound "
            f"{total!r} at q={kernel.params.q}, p={p:g}, R={radius}"
        )
    return BoundsReport(
        q=kernel.params.q,
        p=p,
        R=radius,
        step1_upper=step1,
        step2_upper=step2,
        total_upper=total,
        compression_lower=lower,
        symbol_lower=interval.lower,
        symbol_upper=interval.upper,
        weyl_residual=weyl,
        grid_N=n,
        dictionary_version=DICTIONARY_VERSION,
    )
