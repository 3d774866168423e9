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
    POLE_GUARD,
    DomainError,
    ScopeError,
    SoundnessError,
    check_exponent,
    dual_exponent,
    strip_halfwidth,
    torus_grid,
)
from .spherical import (
    RadialKernel,
    c_inverse_line_sup,
    c_inverse_shifted,
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


_SCOPE_MESSAGE = (
    "p = 2 is outside the two-sided bounds pipeline; the transform is an "
    "isometry there up to the Plancherel weight — use spectral_sup for the "
    "exact L2 operator norm"
)


#: Trapezoid grid bounds of :func:`line_profile`; at the cap one q=2 report
#: takes about 1.5 s and 200 MB.
_MIN_GRID, _MAX_GRID = 512, 1 << 20


def _profile_grid(kernel, p):
    """Half-width ``L`` and trapezoid grid size ``n`` of :func:`line_profile`."""
    L = kernel.radius + math.ceil(40.0 / (2.0 * strip_halfwidth(p) * kernel.params.log_q))
    n = max(_MIN_GRID, 1 << (2 * L + 1).bit_length())
    if n > _MAX_GRID:
        raise DomainError(f"p={p:g} is too close to 2: the line profile needs {n} > 2^20 points")
    return L, n


def line_profile(kernel, p):
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
    below ``1e-12`` of the sup bound.  ``n`` is the least power of two
    ``>= 2 L + 2`` (so periodic aliasing is below double precision) and at
    least 512.  ``n > 2^20``, or a profile that overflows float64, raises
    :class:`~treeharmonics.params.DomainError`.

    Parameters
    ----------
    kernel : RadialKernel
        Finitely supported radial kernel.
    p : float
        Exponent in ``[1, 2)``; larger values are rejected (reach them
        through duality in the bound assembly).
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
    L, n = _profile_grid(kernel, p)
    shifted = abel_forward(kernel).to_zkernel(delta)
    s = torus_grid(params, n)
    with np.errstate(over="ignore", invalid="ignore"):
        g = fourier_z(shifted, s) * c_inverse_shifted(params, s, delta)
        ell = np.arange(-L, L + 1)
        vals = 2.0 * params.plancherel_const * params.period * inverse_fourier_z(g, ell)
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


def negative_height_bound(kernel, p):
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
    phi = line_profile(kernel, p)
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


def _split_exponent(p):
    """Exponent in ``(1, 2)`` of :func:`tree_norm_upper`'s height split, ``None`` at 1 and inf.

    The split shifts its contour to ``Im z = -delta``; an exponent whose
    ``delta`` comes within :data:`~treeharmonics.params.POLE_GUARD` of
    ``1/2`` (``p`` or its dual next to 1) raises
    :class:`~treeharmonics.params.DomainError`.
    """
    if p == 1.0 or math.isinf(p):
        return None
    pe = p if p < 2.0 else dual_exponent(p)
    delta = strip_halfwidth(pe)
    if delta > 0.5 - POLE_GUARD:
        raise DomainError(
            f"p={p!r} lies too close to 1 or to infinity for the height-split bound: "
            f"its contour shift {delta!r} comes within the pole guard of 1/2"
        )
    return pe


def tree_norm_upper(kernel, p):
    """Certified upper bound for the ``L^p`` convolutor norm on the tree.

    Returns ``(total, step1, step2)``.  At ``p = 1`` (and ``p = inf``) the
    bound is the exact tree ``l1`` norm and the step fields are ``None``;
    for ``p in (1, 2)`` it is the two-part height splitting
    :func:`negative_height_bound` + :func:`nonnegative_height_bound`; for
    ``p > 2`` everything is computed at the dual exponent, which carries
    the same norm.  ``p = 2`` is out of scope.  A bound that overflows
    float64 raises :class:`~treeharmonics.params.DomainError`.
    """
    p = check_exponent(p)
    if p == 2.0:
        raise ScopeError(_SCOPE_MESSAGE)
    pe = _split_exponent(p)
    if pe is None:
        return kernel.l1_on_tree(), None, None
    step1 = negative_height_bound(kernel, pe)
    step2 = nonnegative_height_bound(kernel, pe)
    if not math.isfinite(step1 + step2):
        raise DomainError("the height-split bound overflows float64")
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


def symbol_norm_report(kernel, p):
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
    interval = convolutor_interval(seq.to_zkernel(strip_halfwidth(p)), p)
    return interval, seq.weyl_residual


# ---------------------------------------------------------------------------
# Transference on explicit balls
# ---------------------------------------------------------------------------

def transference_check(kernel, ball, f, p):
    """Verify the layered-convolution inequality on an explicit ball.

    ``lhs`` applies the negative-height half of the kernel to ``f`` —
    ``u(x) = sum_y f(y) k(d(x, y)) 1[h(y) > h(x)]`` computed exactly —
    and takes its ``l^p`` norm.  The height changes by exactly 1 along
    every edge, so every contributing pair has ``|h(y) - h(x)| <= d(x, y)
    <= D``; within that window of width ``2D + 1`` the residue of ``h(y)``
    modulo ``2D + 1`` fixes ``h(y) - h(x)``.  One sphere-sum convolution
    of ``f 1[h = r mod 2D + 1]`` per residue ``r`` therefore suffices:
    ``x`` adds the classes ``r`` with ``(r - h(x)) mod (2D + 1)`` in
    ``[1, D]``, which is ``2D + 1`` convolutions in all.  ``rhs`` is the
    shell-series bound ``||f||_p sum_m mu_m q^{-2m/p} ||row_m||`` with
    ``row_m(u) = q^{u/p} k(u)`` supported on ``u >= 2m + 1`` and the row
    norms certified by :func:`~treeharmonics.zline.convolutor_upper`.
    Requires ``f`` to vanish outside the interior window ``B_{R-D}`` so
    every class convolution is exact on the ball.

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
    width = 2 * D + 1
    residue = ball.height % width
    u = np.zeros(ball.size, dtype=complex)
    for r in range(width):
        # a contributing y in class r has h(y) = h(x) + step, as |h(y) - h(x)| <= D
        step = (r - residue) % width
        above = (step >= 1) & (step <= D)
        u[above] += ball.convolve(kernel, f * (residue == r))[above]
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


def bounds_report(kernel, p, radius=None):
    """Run both sides of the bounds pipeline and assert the sandwich.

    Assembles the height-splitting upper bound, the ball-compression
    lower bound at the given radius (default ``D + 3``), and the shifted
    symbol's norm interval into a :class:`BoundsReport`.  ``grid_N`` is
    the grid :func:`line_profile` derived, or 512 where no profile is
    built.  A certified lower bound exceeding the certified upper bound
    (beyond rounding slack), or either side being NaN, raises
    :class:`SoundnessError`.
    """
    kernel = kernel.trimmed()
    p = check_exponent(p)
    if p == 2.0:
        raise ScopeError(_SCOPE_MESSAGE)
    if radius is None:
        radius = kernel.radius + 3
    radius = int(radius)
    total, step1, step2 = tree_norm_upper(kernel, p)
    lower, _ = tree_norm_lower(kernel, p, radius=radius)
    interval, weyl = symbol_norm_report(kernel, p)
    if not lower <= total + 1e-10 * max(1.0, total):
        raise SoundnessError(
            f"certified lower bound {lower!r} exceeds certified upper bound "
            f"{total!r} at q={kernel.params.q}, p={p:g}, R={radius}"
        )
    # the height split builds its profile at the split exponent, and none
    # at p in {1, inf} or for a kernel of radius 0 (negative_height_bound)
    pe = _split_exponent(p)
    grid_n = _MIN_GRID if pe is None or kernel.radius == 0 else _profile_grid(kernel, pe)[1]
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
        grid_N=grid_n,
        dictionary_version=DICTIONARY_VERSION,
    )
