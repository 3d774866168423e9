"""Certified two-sided bounds for radial convolutors on the tree.

The upper bound splits a radial kernel by the sign of the relative height
in horocyclic coordinates.  The negative-height half is the finite shell
series of :func:`negative_height_bound`, whose rows the reconstruction
identity gives exactly; the nonnegative-height half is a weighted Abel
sum.  The lower bound is an exact norm where the theory gives one, and
elsewhere compresses the convolutor to a finite ball and certifies
attained Rayleigh quotients.  Where the split exponent is 1 (``p`` in
``{1, inf}``) or the kernel has radius 0, both sides are the exact tree
``l1`` norm, so the sandwich compares that norm with itself; the tests
cross-check it on explicit balls, where the delta and a phase-matched
row attain it.  For a one-sign kernel the lower side is Herz's norm
``|FT k(i delta(p))|``, summed from the shifted Abel coefficients and
rounded down past its rounding error, against the split, summed from
the rows and the Abel sum: two computations of one value.  The tests
cross-check it against the Rayleigh quotients of the radial trials that
attain it.  :func:`bounds_report` assembles both sides and *asserts* the
sandwich ``compression_lower <= total_upper`` — a violation is a
soundness bug, not a data condition, and raises :class:`SoundnessError`.

Every side reads the same facts: the split exponent, whether the kernel
takes Herz's exact norm, and its Abel sequence ``seq``, shifted to ``F``
on ``Im z = delta(p)``.  :func:`bounds_report` decides them once, as a
:class:`_Plan` passed to each stage as ``plan``; a stage called alone
makes its own.  So an exact-route report builds ``seq`` and ``F`` once,
checks each finite as it is built, and sums ``||F||_1`` once.
:func:`line_profile` computes the reconstruction profile as a finite
geometric sum, off the report path.

``p = 2`` is excluded throughout the pipeline: there the transform theory
gives the exact operator norm directly, exposed separately as
:func:`spectral_sup`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import (
    DomainError,
    ScopeError,
    SoundnessError,
    check_exponent,
    dual_exponent,
    strip_halfwidth,
)
from .spherical import RadialKernel
from .abel import abel_forward, weyl_residual
from .tree import opnorm_lower, shell_masses
from .zline import (
    DICTIONARY_VERSION,
    _built,
    _l1_exact,
    _one_sign,
    _powers,
    convolutor_interval,
    convolutor_upper,
)


_SCOPE_MESSAGE = (
    "p = 2 is outside the two-sided bounds pipeline; the transform is an "
    "isometry there up to the Plancherel weight — use spectral_sup for the "
    "exact L2 operator norm"
)


@dataclass(frozen=True)
class _Plan:
    """What every side of a report reads, decided once by :func:`_plan`.

    ``pe`` is the split exponent: ``p`` below 2, and above 2 the dual,
    of the same norm; at 1 both sides are the tree ``l1`` norm.  ``herz``
    holds where the kernel has at most one nonzero value or real values of
    one sign (:func:`~treeharmonics.zline._one_sign`), which take Herz's
    exact norm as the lower side.  ``abel`` is ``(seq, F)``, ``F(j) =
    seq(j) q^{j delta(p)}``, or ``None`` where it overflows float64, and
    each stage then meets the overflow as it would alone.
    """

    pe: float
    herz: bool
    abel: object


def _plan(kernel, p):
    """The :class:`_Plan` of ``kernel`` at the checked exponent ``p``."""
    try:
        seq = abel_forward(kernel)
        abel = seq, seq.shifted(strip_halfwidth(p))
    except DomainError:
        abel = None
    return _Plan(p if p < 2.0 else dual_exponent(p), _one_sign(kernel.values), abel)


def line_profile(kernel, p):
    """Contour-shifted reconstruction profile ``phi`` on the integers.

    For ``p in [1, 2)`` the Abel coefficients ``a_j`` are reweighted to
    ``F(j) = a_j q^{j delta(p)}`` (:meth:`~treeharmonics.zline.ZKernel.shifted`).
    On the line ``Im z = -delta(p)`` the regularized reciprocal c-function
    is a geometric series in ``rho = q^{-(1 + 2 delta(p))}``, so the
    profile is one correlation of ``F`` with finitely many weights:

        phi(d) = F(d) - (q - 1) sum_{n >= 1} rho^n F(d + 2n).

    Returned as a two-sided kernel on ``[-L, L]``, it satisfies
    ``phi(d) = q^{d/p} k(d)`` for ``0 <= d <= D``, is exactly zero for
    ``D < d <= L``, and is geometric below ``-D``, ``phi(d - 2) = rho
    phi(d)`` for ``d < -D``: it decays like ``q^{(1/2 + delta(p)) l}``, at
    a rate that does not slow down as ``p -> 2``.  ``L`` is ``D`` plus 40
    e-foldings of that tail.  A profile that overflows float64 raises
    :class:`~treeharmonics.params.DomainError`.

    Parameters
    ----------
    kernel : RadialKernel
        Finitely supported radial kernel.
    p : float
        Exponent in ``[1, 2)``; larger values are rejected (reach them
        through duality in the bound assembly).
    """
    params = kernel.params
    p = check_exponent(p)
    if p >= 2.0:
        raise DomainError(
            f"profile is defined for p in [1, 2), got p={p:g}; "
            "handle p > 2 by duality before calling"
        )
    delta = strip_halfwidth(p)
    D = kernel.radius
    L = D + 2 * math.ceil(40.0 / ((1.0 + 2.0 * delta) * params.log_q))
    N = (L + D) // 2  # phi(-L) reaches F(D) through the weight rho^N
    weights = np.zeros(2 * N + 1)
    weights[0] = 1.0
    weights[2::2] = (1.0 - params.q) * params.qpow(-(1.0 + 2.0 * delta) * np.arange(1, N + 1))
    padded = np.zeros(2 * (L + N) + 1, dtype=complex)
    padded[L - D : L + D + 1] = abel_forward(kernel).shifted(delta).values
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.correlate(padded, weights, "valid")
    if not np.isfinite(vals).all():
        raise DomainError("the line profile overflows float64: the kernel values are too large")
    return _built(params, -L, vals)


@functools.lru_cache(maxsize=32)
def _shell_geometry(params, p, D):
    """Step 1's weights ``mu_m q^{-2m/p}`` and row-0 scale ``q^{u/p}``, ``1 <= u <= D``.

    Computed once per ``(params, p, D)`` (at most 32 geometries): the
    weights as a tuple of floats, the scale as an array that every call
    shares, so it is read-only.
    """
    top = 2 * ((D - 1) // 2)  # the last row, m = top / 2, starts at u = top + 1
    with np.errstate(over="ignore", invalid="ignore"):
        # q^{u/p} by one exp: the shell weights at u = -2m, row 0 at u >= 1
        powers = params.qpow(np.arange(-top, D + 1) / p)
        weights = tuple((shell_masses(params, top // 2) * powers[top::-2]).tolist())
    scale = powers[top + 1 :]
    scale.flags.writeable = False
    return weights, scale


def negative_height_bound(kernel, p):
    """Step 1 of the height split: the shell series of the negative-height half.

    Shell ``m`` of the horocyclic decomposition contributes, weighted by
    ``mu_m q^{-2m/p}``, the convolutor norm on the integers of the
    reconstruction profile truncated to ``[2m+1, oo)``.  For a kernel of
    radius ``D`` the reconstruction identity gives that truncation
    exactly: ``row_m(u) = q^{u/p} k(u)`` for ``2m+1 <= u <= D`` and zero
    beyond, so the series is the finite sum over ``m <= (D-1)/2`` of
    ``mu_m q^{-2m/p} ||row_m||``, each row norm certified by
    :func:`~treeharmonics.zline.convolutor_upper` (exact for a one-sign
    row and for a row with at most two nonzero entries).  The row
    ``u = D-2..D`` of an odd ``D`` has three entries; where its two ends
    are nonzero, its line sup comes from one quartic and no grid
    (:func:`~treeharmonics.zline._three_term_sup`).  The same series per
    unit ``||f||_p`` is the ``rhs`` of :func:`transference_check`.

    Every row is a suffix of row 0, ``q^{u/p} k(u)`` for ``1 <= u <= D``,
    which is scaled once; the weights and the scale are computed once per
    ``(q, p, D)`` (:func:`_shell_geometry`).  The moduli of row 0 are taken
    once, and each row's ``l1`` norm is the sum of their suffix, the bytes
    of :meth:`~treeharmonics.zline.ZKernel.l1`.  A row whose ``l1`` bound is
    exact (:func:`~treeharmonics.zline._l1_exact`) contributes that sum, as
    :func:`~treeharmonics.zline.convolutor_upper` would return it, with no
    row built; so does every later row, since a suffix of a one-sign row
    is one-sign and one of a two-entry row has at most two nonzero entries.
    Only the other rows go to
    :func:`~treeharmonics.zline.convolutor_upper`, their sum attached.
    Kernels supported at the origin only have an identically vanishing
    negative half, reported as exactly ``0.0``.  A row that overflows
    float64 makes the series infinite.
    """
    p = check_exponent(p)
    if p >= 2.0:
        raise DomainError(f"negative-height bound requires p in [1, 2), got p={p:g}")
    params = kernel.params
    D = kernel.radius
    if D == 0:
        return 0.0
    weights, scale = _shell_geometry(params, p, D)
    series = 0.0
    exact = None
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = kernel.values[1:] * scale
        moduli = np.abs(scaled)
        for m, weight in enumerate(weights):
            row_norm = float(np.add.reduce(moduli[2 * m :]))
            if not math.isfinite(row_norm):
                return math.inf  # the row, or its l1 norm, overflows
            exact = exact or _l1_exact(scaled[2 * m :], p)
            if not exact:
                row = _built(params, 2 * m + 1, scaled[2 * m :], l1=row_norm)
                row_norm, _ = convolutor_upper(row, p)
            series += weight * row_norm
    return series


def nonnegative_height_bound(kernel, p, *, plan=None):
    """Weighted Abel sum bounding the nonnegative-relative-height half.

    Returns ``sum_{j >= 0} q^{-j delta(p)} (Abel |k|)(j)``, the horocycle
    masses of the absolute kernel discounted by the height weight; finite
    for every finitely supported kernel and nondecreasing in ``p`` on
    ``(1, 2)`` for fixed nonnegative ``k``.  A sum that overflows float64
    is ``inf``.

    For real ``k`` of one sign, ``|k| = +-k`` entry for entry, and the
    Abel transform takes the same steps on both with every sign flipped,
    which rounding respects, so such a kernel reads ``|seq|`` from ``plan``
    (:class:`_Plan`): one whose Herz flag holds and whose imaginary parts
    are all zero.  A phase is not a sign: a single nonzero value that is
    not real also takes Herz's norm, but ``|seq|`` misses its ``Abel |k|``
    in the last bits.  Any other kernel transforms ``|k|`` itself.
    """
    p = check_exponent(p)
    if not 1.0 < p < 2.0:
        raise DomainError(f"nonnegative-height bound requires p in (1, 2), got p={p:g}")
    params = kernel.params
    D = kernel.radius
    delta = strip_halfwidth(p)
    plan = plan or _plan(kernel, p)
    if plan.herz and plan.abel is not None and not np.count_nonzero(kernel.values.imag):
        abs_seq = np.abs(plan.abel[0].values.real)
    else:
        abs_seq = abel_forward(RadialKernel(params, np.abs(kernel.values))).values.real
    terms = params.qpow(-np.arange(D + 1) * delta) * abs_seq[D:]
    try:
        return math.fsum(terms.tolist())
    except OverflowError:
        return math.inf  # the terms are nonnegative, so the sum overflows to +inf


def spectral_sup(kernel):
    """Exact-at-``p=2`` operator norm: sup of the symbol on the real line."""
    value, _ = convolutor_upper(abel_forward(kernel), 2.0)
    return value


def tree_norm_upper(kernel, p, *, plan=None):
    """Certified upper bound for the ``L^p`` convolutor norm on the tree.

    Returns ``(total, step1, step2)``.  The bound is the two-part height
    splitting :func:`negative_height_bound` +
    :func:`nonnegative_height_bound` at the split exponent of ``plan``
    (:class:`_Plan`; ``None`` makes it).  For ``k >= 0`` the total is
    Herz's exact norm ``|FT k(i delta(p))|`` up to rounding.  Where the
    split exponent is 1 — ``p`` in ``{1, inf}``, or a ``p`` whose dual
    rounds to 1 — the bound is the exact tree ``l1`` norm and the step
    fields are ``None``.  ``p = 2`` is out of scope.  A bound that
    overflows float64 raises :class:`~treeharmonics.params.DomainError`.
    """
    p = check_exponent(p)
    if p == 2.0:
        raise ScopeError(_SCOPE_MESSAGE)
    plan = plan or _plan(kernel, p)
    if plan.pe == 1.0:
        return kernel.l1_on_tree(), None, None
    step1 = negative_height_bound(kernel, plan.pe)
    step2 = nonnegative_height_bound(kernel, plan.pe, plan=plan)
    if not math.isfinite(step1 + step2):
        raise DomainError("the height-split bound overflows float64")
    return step1 + step2, step1, step2


def _herz_lower(kernel, F):
    """Herz's exact norm of a one-sign kernel, rounded down past its rounding error.

    For a kernel whose values are real and of one sign, or that has one
    nonzero value, the ``L^p`` norm at ``1 < p < inf`` is ``|FT k(i
    delta(p))|`` (Herz's principle: C. Herz, C. R. Acad. Sci. Paris 271,
    1970; Cowling-Meda-Setti, Expo. Math. 16, 1998).  It is a lower bound
    because radial trials attain it: ``f_W(x) = q^{-|x|/p} 1[|x| <= W]``
    is an eigenfunction of the sphere-sum recurrence away from the origin,
    ``k * f_W = FT k(i delta(p)) f_W`` on the spheres ``D <= d <= W - D``,
    so both ``l^p`` sums are affine in ``W`` and the Rayleigh ratios, each
    a true lower bound, tend to ``|FT k(i delta(p))|``.  That value is
    ``|sum_j F(j)| = ||F||_1`` for the shifted Abel coefficients ``F(j) =
    a_j q^{j delta(p)}``, which all carry the kernel's one phase.

    ``||F||_1`` is summed in float64, with unit roundoff ``u = 2^-53``,
    and returned times ``1 - gamma``, ``gamma = 4 (D (1 + ln q) + 3) u``.
    Take every arithmetic operation within ``u``, and ``exp``, ``log`` and
    the modulus within one ulp, ``2u``.  A term ``|F(j)|``, ``t = |j| <=
    D``, is then off by at most, to first order:

    - ``(D + 2) u`` from the Abel reduction: the weight ``(q - 1)
      q^{i-1}`` takes ``i <= D/2`` operations with ``float(q)``, ``2u``
      each, then one product with ``k``, and the ``<= D/2`` sums add
      terms of one sign;
    - ``(1.5 t ln q + 3) u`` from ``q^{t/2}``: the exponent ``(t/2)
      fl(ln q)`` is off by ``(t/2) ln q 3u``, then ``exp`` and the
      product;
    - ``(2.5 t ln q + 3) u`` from ``q^{j delta}``: ``delta = |1/p - 1/2|``
      is off by ``u/2``, the exponent ``fl(j delta) fl(ln q)``, at most
      ``(t/2) ln q``, by ``4u`` of itself more, then ``exp`` and the
      product;
    - ``2u`` from the modulus.

    The sum of the ``2D + 1`` nonnegative moduli adds ``2D u``.  That is
    ``(3D + 10 + 4D ln q) u`` in all.  The rest of ``gamma``, ``(D + 2)
    u``, covers the rounding of ``1 - gamma`` and of the product, the
    second-order terms and, for ``q`` above ``2^53``, the rounding of
    ``float(q)`` inside ``log``, at most ``D u`` over both exponents.
    Against 60-digit sums over 4,000 random one-sign kernels (``q <=
    1000``, ``D <= 14``, scales ``1e-100`` to ``1e100``, ``p`` from ``1 +
    1e-9`` to ``1e15``) the sum exceeded the exact value by at most
    ``0.17 gamma``.  The model needs every nonzero intermediate
    far from the subnormals: each is at least ``min(1, min |k|) q^{-D/2}``
    in modulus, and below ``2^-1000`` the route gives way (``None``), as
    it does where the sum overflows float64.  ``F`` comes from the
    :class:`_Plan`.
    """
    params = kernel.params
    D = kernel.radius
    kv = kernel.values
    # min(1, min |k|) times q^{-D/2} bounds every nonzero intermediate below
    if np.minimum.reduce(np.abs(kv[kv != 0.0]), initial=1.0) * params.qpow(-D / 2.0) < 2.0**-1000:
        return None
    try:
        herz = F.l1()
    except DomainError:
        return None
    return herz * (1.0 - 4.0 * (D * (1.0 + params.log_q) + 3.0) * 2.0**-53)


def tree_norm_lower(kernel, p, radius=None, *, plan=None):
    """Certified lower bound: an exact norm where the theory gives one, else a compression.

    Where the split exponent is 1 — ``p`` in ``{1, inf}``, or a ``p``
    whose dual rounds to 1 — or the kernel has radius 0, the convolutor
    norm is the tree ``l1`` norm, returned as ``exact:l1``.  Where the
    Herz flag of ``plan`` (:class:`_Plan`; ``None`` makes it) holds, the
    norm is Herz's ``|FT k(i delta(p))|``, returned rounded down past its
    rounding error as ``exact:herz`` (:func:`_herz_lower`); a Herz sum
    that leaves float64 falls through to the compression.  Neither route
    runs a compression.  Otherwise every reported value is an attained
    Rayleigh quotient of the exact ball convolution of a radial trial
    function, computed on the radial quotient of the ball by
    :func:`~treeharmonics.tree.opnorm_lower`, hence a true lower bound
    for the convolutor norm.  That value is
    clamped to the tree ``l1`` norm, which bounds every ``L^p`` norm: for
    ``p`` next to 1 the best trial can round above the exact norm.
    Returns ``(value, method)``.  The ball must strictly contain the
    kernel support (``radius >= D + 1`` so the central column is
    complete), at every ``p`` and on every route; the default ``D + 3``
    leaves room for window trials.
    """
    p = check_exponent(p)
    D = kernel.radius
    radius = D + 3 if radius is None else int(radius)
    if radius < D + 1:
        raise DomainError(
            f"compression radius {radius} must be at least D+1 = {D + 1} "
            "so the central column is complete"
        )
    plan = plan or _plan(kernel, p)
    if D == 0 or plan.pe == 1.0:
        return kernel.l1_on_tree(), "exact:l1"
    if plan.herz and plan.abel is not None:
        herz = _herz_lower(kernel, plan.abel[1])
        if herz is not None:
            return herz, "exact:herz"
    value, method = opnorm_lower(kernel, p, radius)
    try:
        value = min(value, kernel.l1_on_tree())
    except DomainError:
        pass  # an l1 norm that overflows clamps nothing
    return value, method


def symbol_norm_report(kernel, p, *, plan=None):
    """Two-sided norm interval for the shifted symbol's coefficients on ℤ.

    Builds the kernel ``(a_j q^{j delta(p)})_j`` from the Abel
    coefficients (:meth:`~treeharmonics.zline.ZKernel.shifted`) and
    returns ``(interval, weyl_residual)`` where the interval is the
    certified :func:`~treeharmonics.zline.convolutor_interval` at ``p``
    and the residual is the evenness defect
    :func:`~treeharmonics.abel.weyl_residual` of the coefficients (exactly
    ``0`` for every radial kernel).  ``p = 2`` is out of scope.  ``plan``
    is the :class:`_Plan`; ``None`` makes it, and a pair that overflows
    float64 raises :class:`~treeharmonics.params.DomainError`.
    """
    p = check_exponent(p)
    if p == 2.0:
        raise ScopeError(_SCOPE_MESSAGE)
    plan = plan or _plan(kernel, p)
    if plan.abel is None:
        abel_forward(kernel).shifted(strip_halfwidth(p))  # raises the overflow's DomainError
    seq, F = plan.abel
    return convolutor_interval(F, p), weyl_residual(seq)


# ---------------------------------------------------------------------------
# Transference on explicit balls
# ---------------------------------------------------------------------------

def transference_check(kernel, ball, f, p):
    """Verify the layered-convolution inequality on an explicit ball.

    ``lhs`` applies the negative-height half of the kernel to ``f`` —
    ``u(x) = sum_y f(y) k(d(x, y)) 1[h(y) > h(x)]`` computed exactly —
    and takes its ``l^p`` norm.  With a fixed end, the geodesic from ``x``
    to ``y`` climbs ``a`` steps toward it and then descends ``b``, so
    ``h(y) - h(x) = a - b`` and the half is the sum over ``a > b``,
    ``a + b <= D``.  With ``P`` the up-gather and ``C`` the down-sum of
    the ball (:meth:`~treeharmonics.tree.TreeBall.up_gather`,
    :meth:`~treeharmonics.tree.TreeBall.down_sum`),

        u = sum_{a, b} k(a + b) (P^a C^b f - [b >= 1] P^(a-1) C^(b-1) f),

    the subtracted walk being the one that backtracks.  Horner's rule in
    ``P`` takes ``(D - 1) // 2`` down-sums and ``D`` gathers.  ``rhs`` is
    ``||f||_p`` times the shell series :func:`negative_height_bound`.
    Requires ``f`` to vanish outside the interior window ``B_{R-D}``: the
    ball is geodesically convex and a walk cut off at its edge reaches
    no vertex where ``f`` is nonzero, so ``u`` is exact on the ball.

    The work stays where the vectors can be nonzero; breadth-first, every
    ``B_r`` is a prefix of the ball.  Off the reference ray ``C`` moves
    support inward and ``P`` outward by one sphere, and along the ray each
    ``C`` reaches one vertex further out.  So ``C^b f``, a down-sum on
    ``B_{R-D+b}``, is added only on that prefix, and the partial sum of
    step ``a`` vanishes outside ``B_{R-a}``; its gather fills ``B_{R-a+1}``.
    ``P`` copies entries, so ``|P u|^p = P(|u|^p)``: the last gather moves
    the inner ball's ``p``-th powers, not its complex values.  ``||f||_p``
    raises the window's moduli, zeros too.  Each power sum still runs over a
    buffer of the whole ball's length, since that length fixes the
    grouping of numpy's pairwise sum, so every byte is that of the walk on
    the whole ball.  At ``D = 0`` the negative-height half is empty and
    ``lhs`` is ``0.0``.

    Returns ``{"lhs": ..., "rhs": ..., "ok": ...}`` with
    ``ok = lhs <= rhs + 1e-12 max(1, rhs)``.  A non-finite ``||f||_p``,
    ``lhs`` or ``rhs`` (a NaN or inf in ``f``, or values that overflow
    float64) raises :class:`DomainError` naming which one.
    """
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
    # breadth-first, every vertex deeper than the window lies in one suffix
    if f[ball.level_start[window + 1] :].any():
        raise DomainError(
            f"support violation: f must vanish outside the interior window "
            f"of radius {window}"
        )
    kv = kernel.values
    start = ball.level_start
    with np.errstate(over="ignore", invalid="ignore"):
        # each power sum runs over the whole ball, whose length fixes its bytes
        f_norm = float(_powers(np.abs(f[: start[window + 1]]), p, ball.size).sum() ** (1.0 / p))
        if not math.isfinite(f_norm):
            raise DomainError(
                f"||f||_p is {f_norm}: f has a non-finite entry or overflows float64"
            )
        lhs = 0.0
        if D >= 1:
            def grown(g, r):  # g listed on B_r, zero past its own prefix
                return np.concatenate((g, np.zeros(start[r + 1] - g.size, dtype=complex)))

            down = [f[: start[window + 1]]]  # down[b] = C^b f, listed on B_{window+b}
            for b in range(1, (D - 1) // 2 + 1):
                down.append(ball.down_sum(grown(down[-1], window + b)))
            u = np.zeros(start[window + 1], dtype=complex)  # on B_{R-a} at step a
            for a in range(D, 0, -1):
                # P^a's coefficient: k(a + b) C^b f, less k(a + b + 2) C^b f, the
                # walk a + 1 up and b + 1 down that backtracks
                for b in range(min(a - 1, D - a) + 1):
                    u[: down[b].size] += kv[a + b] * down[b]
                for b in range(min(a, D - a - 1)):
                    u[: down[b].size] -= kv[a + b + 2] * down[b]
                if a > 1:
                    u = ball.up_gather(grown(u, ball.radius - a + 1))
            # P copies entries, so |P u|^p = P(|u|^p)
            lhs = float(ball.up_gather(_powers(np.abs(u), p, ball.size)).sum() ** (1.0 / p))
    if not math.isfinite(lhs):
        raise DomainError(
            f"lhs is {lhs}: the negative-height half applied to f overflows float64"
        )
    rhs = float(f_norm * negative_height_bound(kernel, p))
    if not math.isfinite(rhs):
        raise DomainError(
            f"rhs is {rhs}: ||f||_p times the kernel's shell series overflows float64"
        )
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
    dictionary_version: str

    @property
    def necessity_ratio(self):
        """Empirical ratio compression_lower / symbol_upper (report-only)."""
        if self.symbol_upper > 0.0:
            return self.compression_lower / self.symbol_upper
        return math.inf if self.compression_lower > 0.0 else 0.0

    def to_json_dict(self):
        # every field is a number, a string or None: a flat copy, in field order
        return dict(vars(self))


def bounds_report(kernel, p, radius=None):
    """Run both sides of the bounds pipeline and assert the sandwich.

    Assembles the height-splitting upper bound, the lower bound of
    :func:`tree_norm_lower` (an exact norm, or the ball compression at the
    given radius, default ``D + 3``), and the shifted symbol's norm
    interval into a :class:`BoundsReport`.  A certified
    lower bound exceeding the certified upper bound (beyond rounding
    slack), or either side being NaN, raises :class:`SoundnessError`.
    One :class:`_Plan` goes to every stage, so the kernel is
    Abel-transformed once.
    """
    p = check_exponent(p)
    if p == 2.0:
        raise ScopeError(_SCOPE_MESSAGE)
    radius = kernel.radius + 3 if radius is None else int(radius)
    plan = _plan(kernel, p)
    total, step1, step2 = tree_norm_upper(kernel, p, plan=plan)
    lower, _ = tree_norm_lower(kernel, p, radius=radius, plan=plan)
    interval, weyl = symbol_norm_report(kernel, p, plan=plan)
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
        dictionary_version=DICTIONARY_VERSION,
    )
