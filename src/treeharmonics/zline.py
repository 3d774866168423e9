"""Convolution kernels on the integer line and their multiplier norms.

A finitely supported kernel ``F`` on the integers acts by convolution on
every ``l^p`` space.  Its operator norm is controlled by the boundary
values of the symbol

    (FT F)(z) = sum_d F(d) q^{-i d z},

a trigonometric polynomial in ``z`` with period ``2*pi/log(q)`` that
extends holomorphically to every horizontal strip.  Exact values of the
``l^p`` operator norm are unknown in general, so this module reports
certified *intervals*; where the ``l^1`` norm is exact (:func:`_l1_exact`)
both ends are that norm.  Otherwise one attained sup of the symbol on the
real line serves both ends: the upper end interpolates between the exact
``l^1`` norm and that sup, and the sup is itself a lower end at every ``p``,
since an ``l^p`` multiplier norm is at least the ``l^2`` one.  The other
lower candidates are the delta and the iterates of a duality-map ascent,
trial vectors whose convolution ratios are computed exactly.

The trial dictionary is versioned (:data:`DICTIONARY_VERSION`); any change
to its contents must bump the version string, which is quoted in every
report that depends on a lower bound.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .params import (
    DomainError,
    SoundnessError,
    check_exponent,
    check_grid,
    dual_exponent,
    tree_params,
)

#: Version tag of the lower-bound trial dictionary.  Bump when the trial
#: set changes, so stored reports remain attributable.
DICTIONARY_VERSION = "dict-v6"

_POWER_ITERATES = 50
_POWER_SUM_FLOOR = 2.0**-1000  # below it, subnormal terms may inflate a ratio (duality_ascent)
_POWER_WINDOW = 1024
_EVAL_CHUNK = 2048  # frequencies per phase matrix in _eval_symbol


@dataclass(frozen=True)
class ZKernel:
    """Finitely supported kernel on the integers.

    ``values[i]`` is the kernel value at the integer ``offset + i``; the kernel owns a checked copy.
    """

    params: object
    offset: int
    values: np.ndarray

    def __post_init__(self):
        params = tree_params(self.params)
        vals = np.array(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("kernel values must form a nonempty 1-d array")
        if not np.isfinite(vals).all():
            raise DomainError("kernel values must be finite (no NaN or infinity)")
        self.__dict__.update(params=params, offset=int(self.offset), values=vals)

    @property
    def support(self):
        """Index range ``(d_min, d_max)`` spanned by the stored window."""
        return self.offset, self.offset + self.values.size - 1

    @property
    def indices(self):
        return np.arange(self.offset, self.offset + self.values.size)

    def at(self, d):
        """Kernel value at integer ``d`` (0 outside the stored window)."""
        i = int(d) - self.offset
        if 0 <= i < self.values.size:
            return complex(self.values[i])
        return 0.0 + 0.0j

    def l1(self):
        """Sum of the moduli of the values, taken once; an overflowed sum raises :class:`DomainError`."""
        if (value := self.__dict__.get("_l1")) is None:
            with np.errstate(over="ignore"):
                value = self.__dict__["_l1"] = float(np.add.reduce(np.abs(self.values)))
        if not math.isfinite(value):
            raise DomainError(
                "the l1 norm on the integers overflows float64: the kernel values are too large"
            )
        return value

    def shifted(self, v):
        """The kernel ``F(d) q^{d v}``, whose symbol on the real line is ``FT F`` on ``Im z = v``.

        Values that overflow float64 raise
        :class:`~treeharmonics.params.DomainError`; values that underflow
        are exact zeros.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.values * self.params.qpow(self.indices * v)
        if not np.isfinite(values).all():
            raise DomainError(f"the kernel shifted to Im z = {v:g} overflows float64")
        return _built(self.params, self.offset, values)

    def trimmed(self):
        """Without leading/trailing zero entries: itself if neither end is zero, else a copy."""
        if self.values[0] != 0.0 and self.values[-1] != 0.0:
            return self
        nz = np.flatnonzero(np.abs(self.values) != 0.0)
        if nz.size == 0:
            return _built(self.params, 0, np.zeros(1, dtype=complex))
        lo, hi = nz[0], nz[-1]
        return _built(self.params, self.offset + int(lo), self.values[lo : hi + 1].copy())


def _built(params, offset, values, l1=None):
    """An unchecked :class:`ZKernel`: ``values`` must be a finite complex nonempty 1-d array
    that the caller built and no longer writes, ``params`` a ``TreeParams``, ``offset`` an ``int``.

    ``l1``, where given, is kept as :meth:`ZKernel.l1`'s sum: it must be
    ``float(np.add.reduce(np.abs(values)))``, its bytes included.
    """
    kernel = object.__new__(ZKernel)
    kernel.__dict__.update(params=params, offset=offset, values=values)
    if l1 is not None:
        kernel.__dict__["_l1"] = l1
    return kernel


def zkernel(q, values, offset=0):
    """Build a :class:`ZKernel` from raw values starting at index ``offset``."""
    return ZKernel(tree_params(q), offset, np.asarray(values, dtype=complex))


# ---------------------------------------------------------------------------
# Fourier transform on the integers
# ---------------------------------------------------------------------------

def fourier_z(F, z):
    """Symbol ``sum_d F(d) q^{-i d z}`` at frequencies ``z`` (complex allowed).

    The sum is finite, so the symbol is entire in ``z``; evaluating below
    the real axis exponentially damps the positive indices and amplifies
    the negative ones.
    """
    z = np.asarray(z, dtype=complex)
    out = _eval_symbol(F.values, F.indices.astype(float), z.ravel(), F.params.log_q)
    return out.reshape(z.shape) if z.shape else complex(out[0])


def _eval_symbol(vals, dvals, z, log_q):
    """Chunked evaluation of ``sum_d vals_d exp(-i d z log q)`` over flat ``z``.

    Each column of a 2-d ``vals`` is one symbol; ``out`` has shape ``z.shape + vals.shape[1:]``.
    """
    out = np.empty(z.shape + vals.shape[1:], dtype=complex)
    for start in range(0, z.size, _EVAL_CHUNK):
        phases = -1j * log_q * np.multiply.outer(z[start : start + _EVAL_CHUNK], dvals)
        out[start : start + _EVAL_CHUNK] = np.exp(phases, out=phases) @ vals
        del phases  # in place and freed: one phase matrix alive at a time
    return out


def _grid_symbol(coeffs, d, n):
    """``sum_d coeffs_d q^{-i d s_j}`` on the ``n``-point torus grid, by one FFT.

    On ``s_j = -tau/2 + tau j/n`` the phase is ``(-1)^d exp(-2 pi i d j/n)``
    for every ``q``, so folding the coefficients at the consecutive
    integers ``d`` modulo ``n`` with the sign ``(-1)^d`` turns the symbol
    into a discrete Fourier transform.  At most ``n`` consecutive integers
    have distinct residues, so they fold by one indexed add; longer windows
    wrap around and go through ``np.add.at``.
    """
    folded = np.zeros(n, dtype=complex)
    signed = np.where(d % 2 == 0, coeffs, -coeffs)
    if d.size <= n:
        folded[d % n] += signed
    else:
        np.add.at(folded, d % n, signed)
    return np.fft.fft(folded)


def inverse_fourier_z(samples, d):
    """Recover kernel values at the integers ``d`` from ``n`` equispaced symbol samples.

    ``samples`` are taken on the standard ``n``-point torus grid.  The
    quadrature is the periodic trapezoid rule, which is exact whenever the
    symbol is a trigonometric polynomial of degree below ``n/2``.  On the
    grid ``s_j = -tau/2 + tau j/n`` the phase ``q^{i d s_j}`` is ``(-1)^d
    exp(2 pi i d j/n)`` for every ``q``, so the sum is one inverse FFT of
    the samples, read at ``d mod n`` with the sign ``(-1)^d``; the result
    does not depend on ``q``.
    """
    samples = np.asarray(samples, dtype=complex)
    n = check_grid(samples.size)
    d = np.asarray(d)
    if d.dtype.kind not in "iu":
        raise DomainError(f"kernel indices must be integers, got dtype {d.dtype}")
    out = np.fft.ifft(samples)[d % n] * np.where(d % 2 == 0, 1.0, -1.0)
    return out if d.shape else complex(out)


# ---------------------------------------------------------------------------
# Line suprema of the symbol
# ---------------------------------------------------------------------------

def _line_sup(F):
    """Sup of ``|FT F|`` on the real line; other lines are :meth:`ZKernel.shifted` first.

    Returns ``(value, n)`` where ``n`` is the grid resolution, or ``0``
    where no grid ran.  A symbol of exactly three coefficients whose two
    ends are nonzero takes its sup from its critical points
    (:func:`_three_term_sup`).  Every other symbol runs a grid of four
    times the kernel span rounded up to a power of two, within
    ``[1024, 2^14]``.  The grid values are one FFT (:func:`_grid_symbol`).
    The local maxima of the grid that can still win then take two Newton
    steps at once on the stationarity equation of ``|symbol|^2``, each
    clamped to one cell of width ``h``; these scattered points are the
    only ones evaluated through phase matrices (:func:`_eval_symbol`).
    The derivatives ``m'``, ``m''`` are the symbols of the coefficients
    ``c_d`` times ``w_d = -i d log q`` and ``w_d^2``, so they share ``m``'s
    phase matrix.  A maximum is dropped when its grid value plus
    ``2h sum |c_d w_d|`` (and a rounding allowance proportional to
    ``sum |c_d|``) does not exceed the best grid value: its steps move it
    at most ``2h`` and ``|m'| <= sum |c_d w_d|``, so it cannot refine above
    the best.  Either way the reported value is an attained (hence
    certified) value of ``|FT F|``.
    """
    coeffs = F.values
    if coeffs.size == 3 and coeffs[0] != 0.0 and coeffs[2] != 0.0:
        return _three_term_sup(F), 0
    span = max(abs(F.offset), abs(F.offset + F.values.size - 1), 1)
    n = min(max(1024, 4 << (span - 1).bit_length()), 1 << 14)
    log_q = F.params.log_q
    d = F.indices
    mag = np.abs(_grid_symbol(coeffs, d, n))
    best = float(mag.max())
    d = d.astype(float)
    w = -1j * log_q * d
    # the columns c, c w and c w^2 of m, m' and m'', each times an exact
    # power-of-two scale taken before w is applied, that brings the best
    # grid value into [1/2, 1): no column overflows, and |m'|^2 and m'' m
    # neither overflow nor underflow; the steps are ratios of products, so
    # their bytes do not see it.  A subnormal best takes the scale of the
    # smallest normal one, as a larger power of two leaves float64.
    scale = math.ldexp(1.0, -max(math.frexp(best)[1], -1021))
    derivs = np.empty((d.size, 3), dtype=complex)
    derivs[:, 0] = coeffs * scale
    derivs[:, 1] = derivs[:, 0] * w
    derivs[:, 2] = derivs[:, 0] * w**2
    tau = F.params.period
    h = tau / n
    # the second term covers the rounding of the FFT and of a d.size-term sum
    reach = 2.0 * h * float(np.abs(derivs[:, 1]).sum()) / scale
    reach += (d.size + n) * 2.0**-52 * float(np.abs(coeffs).sum())
    # local maxima on the circular grid that can still refine above the best,
    # placed at the grid points s_j = -tau/2 + tau j/n
    ring = np.concatenate([mag[-1:], mag, mag[:1]])
    keep = (mag >= ring[:-2]) & (mag >= ring[2:]) & ~(mag + reach <= best)
    s = -tau / 2.0 + tau * np.flatnonzero(keep) / n
    for _ in range(2):
        m, m1, m2 = _eval_symbol(derivs, d, s, log_q).T
        g1 = 2.0 * (m1 * np.conj(m)).real
        g2 = 2.0 * (np.abs(m1) ** 2 + (m2 * np.conj(m)).real)
        move = (g2 < 0.0) & np.isfinite(g2)
        s[move] += np.clip(-g1[move] / g2[move], -h, h)
    refined = np.abs(_eval_symbol(coeffs, d, s, log_q))
    # a NaN never wins, as in a running maximum
    return float(refined[refined > best].max(initial=best)), n


def _three_term_sup(F):
    """Sup of ``|FT F|`` on the real line for coefficients ``a, b, c`` with ``a c != 0``.

    With ``w = q^{i s}`` the offset's phase drops out of the modulus, and

        |FT F(s)|^2 = S + 2 Re(u w) + 2 Re(v w^2),
        S = |a|^2 + |b|^2 + |c|^2,  u = a conj(b) + b conj(c),  v = a conj(c).

    Its derivative in ``phi = s log q`` is ``-2 Im(u w + 2 v w^2)``.  On the
    unit circle ``conj(w) = 1/w``, so it vanishes exactly where the quartic
    ``2v w^4 + u w^3 - conj(u) w - 2 conj(v)`` does.  The max is one of
    these critical points, and the quartic's roots are the eigenvalues of
    its companion matrix.  Each root is taken by its angle, so a root off
    the circle only adds one more point; every point is an attained value.

    Where ``|v| <= 2^-32 |u|`` the companion's entries reach ``|u/v|``, and
    its eigenvalues lose the unit-circle roots once that passes about
    ``2^60``.  There the one point ``u w = |u|``, the max of the two-term
    part, is used instead.  It is within ``2^-61`` relative of the sup of
    ``|FT F|^2``, below rounding: a step ``t`` from it changes ``2 Re(u w)``
    by ``-4|u| sin^2(t/2) <= -4|u| t^2/pi^2`` and ``2 Re(v w^2)`` by at most
    ``4|v| |t|``, so it gains at most ``pi^2 |v|^2/|u|``, while the value
    there is at least ``S + 2|u| - 2|v| >= 2|u|``, as ``S >= |a|^2 + |c|^2 >= 2|v|``.

    ``u`` and ``v`` are formed from the coefficients times the power of two
    that brings the largest modulus into ``[1/2, 1)``, so at extreme scales
    they neither overflow nor underflow, and the angles, hence the bytes,
    do not see the scale.  Each root's angle is ``arctan2`` of its parts, as
    ``np.angle`` takes it.  The moduli at the angles come from one phase
    matrix on the coefficients themselves, the products
    :func:`_eval_symbol` forms, with no chunk loop for four points.
    """
    a, b, c = F.values.tolist()
    scale = math.ldexp(1.0, -max(math.frexp(max(abs(a), abs(b), abs(c)))[1], -1021))
    a, b, c = a * scale, b * scale, c * scale
    u = a * b.conjugate() + b * c.conjugate()
    v = a * c.conjugate()
    if abs(v) > 2.0**-32 * abs(u):
        companion = np.eye(4, k=-1, dtype=complex)
        companion[0] = (-u / (2.0 * v), 0.0, u.conjugate() / (2.0 * v), v.conjugate() / v)
        roots = np.linalg.eigvals(companion)
        phi = np.arctan2(roots.imag, roots.real)
    else:
        phi = np.array([-cmath.phase(u)])
    log_q = F.params.log_q
    d = np.arange(F.offset, F.offset + 3, dtype=float)
    phases = -1j * log_q * np.multiply.outer(phi / log_q, d)
    return float(np.abs(np.exp(phases, out=phases) @ F.values).max())


# ---------------------------------------------------------------------------
# Certified norm intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormInterval:
    """Certified bracket ``lower <= ||.|| <= upper`` for an operator norm.

    ``lower_method``/``upper_method`` record how each end was produced
    (trial-vector name with dictionary version, interpolation exponents,
    grid resolutions) so the numbers remain auditable.  A lower end above
    the upper by at most a relative ``1e-12`` is last-ulp rounding of an
    attained exact bound and is clamped to the upper end; beyond that
    slack the bracket is a fault and raises
    :class:`~treeharmonics.params.SoundnessError`.
    """

    lower: float
    upper: float
    lower_method: str
    upper_method: str

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-12) + 1e-300:
            raise SoundnessError(
                f"inconsistent interval: lower {self.lower} exceeds upper {self.upper}"
            )
        object.__setattr__(self, "lower", min(self.lower, self.upper))


def _one_sign(vals):
    """Whether the array ``vals`` has at most one nonzero entry, or real entries of one sign."""
    if np.count_nonzero(vals) <= 1:
        return True
    real, n = vals.real, vals.size  # count_nonzero is several times cheaper than any/all here
    return not np.count_nonzero(vals.imag) and (
        np.count_nonzero(real >= 0.0) == n or np.count_nonzero(real <= 0.0) == n)


def _l1_exact(vals, p):
    """Why ``||F||_1`` is exact for convolution on ``l^p`` by ``F``, of values ``vals``.

    ``one-sign``: at most one nonzero entry, or real entries of one sign
    (:func:`_one_sign`), which the boxes ``1_[0, L)`` attain as ``L ->
    oo``.  ``two-entry``: two nonzero entries, whose phases align
    somewhere on the real line, so the ``l^2`` norm, the sup of the
    symbol, is already ``||F||_1``, and the ``l^p`` norm lies between the
    two.  ``endpoint``: ``p`` in ``{1, inf}``, where the delta and a
    matched-sign trial attain it.  ``None`` where no reason holds.
    """
    if _one_sign(vals):
        return "one-sign"
    if np.count_nonzero(vals) == 2:
        return "two-entry"
    if p == 1.0 or math.isinf(p):
        return "endpoint"
    return None


def convolutor_upper(F, p):
    """Certified upper bound for the norm of convolution by ``F`` on ``l^p``.

    Returns ``(value, method)``.  Where :func:`_l1_exact` gives a reason,
    the bound is the exact ``||F||_1``, named ``l1-exact(<reason>)``;
    interpolating with a grid sup would land up to an ulp below it.
    Otherwise the bound is :func:`_sup_upper`'s.  An ``l^1`` norm that
    overflows float64 raises :class:`~treeharmonics.params.DomainError`.
    """
    p = check_exponent(p)
    exact = _l1_exact(F.values, p)
    if exact:
        return F.l1(), f"l1-exact({exact})"
    return _sup_upper(F, p)[:2]


def _sup_upper(F, p):
    """``(value, method, sup)``: the upper end from the line sup ``sup`` of the symbol.

    At ``p == 2`` the value is ``sup``; elsewhere it interpolates ``sup``
    and the ``l^1`` norm with exponent ``theta = |2/p - 1|``.  The method
    names the route of the sup: ``grid=<n>`` for :func:`_line_sup`'s
    ``n``-point grid, ``quartic`` for a three-term symbol, where no grid
    runs.  The ``l^1`` norm is taken first, so that its overflow raises
    :class:`~treeharmonics.params.DomainError` before the sup could.
    """
    l1 = F.l1()
    sup, used = _line_sup(F)
    route = f"grid={used}" if used else "quartic"
    if p == 2.0:
        return sup, f"spectral-sup({route})", sup
    theta = abs(2.0 / p - 1.0)
    return l1**theta * sup ** (1.0 - theta), f"interp(l1,sup;theta={theta:.6g},{route})", sup


def lp_norm(x, p):
    """``l^p`` norm, ``p = inf`` the max norm, by :func:`_powers`, which raises zeros too."""
    mag = np.abs(np.asarray(x))
    if math.isinf(p):
        return float(mag.max()) if mag.size else 0.0
    return float(np.add.reduce(_powers(mag, p, mag.size)) ** (1.0 / p))


def _powers(mag, p, size):
    """``mag ** p`` at the head of a zero buffer of ``size >= mag.size`` entries.

    Every entry goes through numpy's ``pow``, exact zeros included, which
    gives ``+0.0``; ``pow`` is several times slower on zeros than on other
    entries, so a zero-heavy ``mag`` pays for its zeros.  numpy's pairwise
    sum groups its terms by the array's length, so a caller that raises
    only the head of a vector whose tail is zero pads to the vector's
    length to keep its sum's bytes.
    """
    powers = mag**p
    if size == mag.size:
        return powers
    out = np.zeros(size, powers.dtype)
    out[: mag.size] = powers
    return out


def phase_power(y, expo, mag=None):
    """``phase(y) * |y|**expo`` entrywise, with 0 mapped to ``+0.0``, written over ``y``.

    A complex array ``y`` is overwritten and returned, so the caller must
    own it; other input is copied to complex first.  ``mag`` is
    ``np.abs(y)`` when the caller has it already.  Where every modulus is
    normal, ``y`` is divided by ``mag`` and multiplied by ``mag**expo`` in
    place.  Otherwise only the nonzero moduli are raised and divided out,
    a subnormal one after scaling its entry by ``2**600`` (exact; dividing
    by a subnormal modulus gives NaN), and every other entry is ``+0.0``;
    an entry of normal modulus takes the same operations on both paths.
    """
    if getattr(y, "dtype", None) != complex:
        y = np.array(y, dtype=complex)
    if mag is None:
        mag = np.abs(y)
    if np.minimum.reduce(mag, initial=math.inf) >= 2.0**-1022:
        # no zero, subnormal or NaN modulus: every entry divides by its modulus
        y /= mag
        y *= mag**expo
        return y
    nz = mag > 0.0
    num, den = y[nz], mag[nz]
    power = den**expo
    small = den < 2.0**-1022
    if small.any():
        num[small] *= 2.0**600
        den[small] = np.abs(num[small])
    y.fill(0.0)
    y[nz] = (num / den) * power
    return y


def duality_ascent(apply, adjoint, norm, x, p, iters):
    """Duality-map ascent for the ``l^p -> l^p`` ratio of a linear map.

    Starting from ``x``, each step normalizes the iterate, yields
    ``(k, norm(|apply(x_k)|))`` for the ``k``-th iterate, and moves to the
    ``p'``-th power phase of ``adjoint`` applied to the ``p``-th power phase
    of the image; ``adjoint`` also restricts to the trial window.  ``norm``
    takes the entrywise modulus of a vector, which each iterate computes
    once for the image and shares with its phase map.  Every yielded value
    is the exact ratio of a concrete trial vector, so each is a certified
    lower bound whether or not the ascent has converged.  Stops after
    ``iters`` iterates, when two successive values agree to a relative
    ``1e-10``, before yielding a non-finite value, and before yielding a
    ratio whose normalizing or image ``l^p`` power sum is below ``2**-1000``
    (a norm below ``2**(-1000/p)``), which covers an iterate that vanishes.
    Below that floor the ratio need not be exact: each subnormal power
    ``|x_i|**p`` is rounded to the grid of ``2**-1074``, so a vector of
    tiny entries can come out of its normalization with a norm well above
    1, and its ratio inflated as much.  Above the floor, a sum of at most
    ``2**22`` such terms (the explicit-ball budget ``MAX_BALL_VERTICES``,
    terms counted with their weights) errs by at most ``2**22 * 2**-1074 =
    2**-1052``, under one ulp of the sum.

    ``x`` is copied once, as a complex vector; the normalization and both
    phase powers then write over the iterate and the image.  So ``apply``
    and ``adjoint`` must return fresh complex arrays, never a view of their
    argument or of state they keep.
    """
    if p <= 1.0 or math.isinf(p):
        raise DomainError("duality-map iteration needs 1 < p < inf")
    pd = dual_exponent(p)
    floor = _POWER_SUM_FLOOR ** (1.0 / p)
    prev = -1.0
    x = np.array(x, dtype=complex)
    for k in range(1, iters + 1):
        nx = norm(np.abs(x))
        if nx < floor:
            return
        x /= nx
        y = apply(x)
        mag = np.abs(y)
        est = norm(mag)
        if not floor <= est < math.inf:
            return
        yield k, est
        if prev >= 0.0 and abs(est - prev) <= 1e-10 * max(est, 1e-300):
            return
        prev = est
        x = phase_power(adjoint(phase_power(y, p - 1.0, mag)), pd - 1.0)


def convolutor_interval(F, p):
    """Certified two-sided bracket for the ``l^p`` convolution norm of ``F``.

    Where :func:`_l1_exact` gives a reason, both ends are the exact
    ``||F||_1``, named ``exact:<reason>`` and ``l1-exact(<reason>)``, as
    in :func:`convolutor_upper`.

    Every other kernel reads one line sup (:func:`_line_sup`) at both
    ends.  The upper end is :func:`_sup_upper`'s.  The sup is also a lower
    end at every ``p``: convolution by ``F`` has the same norm on ``l^p``
    and ``l^{p'}``, so Riesz-Thorin bounds the ``l^2`` norm, the sup, by
    the ``l^p`` norm (``M_p`` lies in ``M_2 = L^inf``).  At ``p == 2`` both
    ends are the sup.  Elsewhere the lower end is the first strictly
    greatest of the exact convolution ratio of the delta, ``||F||_p``,
    that of the iterates of :func:`duality_ascent`, named
    ``power[<iterates run>]``, and the sup, named ``line-sup``.  A ratio
    that overflows certifies nothing and is skipped, and so does a delta
    ratio below the ascent's floor.  An ``l^1`` norm that overflows float64
    raises :class:`~treeharmonics.params.DomainError`.
    """
    p = check_exponent(p)
    F = F.trimmed()
    exact = _l1_exact(F.values, p)
    if exact:
        l1 = F.l1()
        return NormInterval(l1, l1, f"exact:{exact}({DICTIONARY_VERSION})", f"l1-exact({exact})")
    upper, upper_method, sup = _sup_upper(F, p)
    if p == 2.0:
        return NormInterval(upper, upper, upper_method, upper_method)

    vals = F.values
    window = min(_POWER_WINDOW, 4 * max(vals.size, 16))
    used, ratio = 0, 0.0
    # power sums and iterates may overflow at large p or near the float64 limit;
    # a ratio that is not finite is skipped below, and the ascent stops before one
    with np.errstate(over="ignore", invalid="ignore"):
        delta = lp_norm(vals, p)
        if delta < _POWER_SUM_FLOOR ** (1.0 / p):
            delta = 0.0
        for used, value in duality_ascent(
            lambda x: np.convolve(x, vals),
            # np.correlate conjugates vals: the adjoint, on the window alone
            lambda w: np.correlate(w, vals, "valid"),
            # 0 ** p is 0, so zero moduli need no mask
            lambda mag: float(np.add.reduce(mag**p) ** (1.0 / p)),
            np.ones(window, dtype=complex),
            p,
            _POWER_ITERATES,
        ):
            ratio = max(ratio, value)
    best, best_name = 0.0, "none"
    for value, name in ((delta, "delta"), (ratio, f"power[{used}]"), (sup, "line-sup")):
        if best < value < math.inf:
            best, best_name = value, name
    return NormInterval(
        best, upper, f"trial:{best_name}({DICTIONARY_VERSION})", upper_method
    )


# ---------------------------------------------------------------------------
# Strip norms and truncation
# ---------------------------------------------------------------------------

def hinf_strip_norm(F, eps):
    """Sup of ``|FT F|`` over the closed strip ``-eps <= Im z <= 0``.

    The symbol of a finitely supported kernel is entire and periodic, so by
    the maximum principle the strip sup is the larger of the sups on the
    two boundary lines; each line sup is computed on a refined grid.  A
    bottom line whose shifted kernel overflows float64, or a line whose
    ``l^1`` norm does, raises :class:`~treeharmonics.params.DomainError`,
    as in :func:`convolutor_upper`.
    """
    if not 0.0 < eps < math.inf:
        raise DomainError(f"strip width must be positive and finite, got {eps}")
    lines = (F, F.shifted(-float(eps)))
    for line in lines:
        line.l1()  # bounds the line's symbol; past float64, the FFT would overflow
    return max(_line_sup(line)[0] for line in lines)


def truncate(F, J):
    """Restriction ``F * 1_{[J, inf)}``: zero out all indices below ``J``."""
    J = int(J)
    vals = F.values.copy()
    cut = J - F.offset
    if cut > 0:
        vals[: min(cut, vals.size)] = 0.0
    return ZKernel(params=F.params, offset=F.offset, values=vals).trimmed()


def hilbert_witness(q, n_support):
    """Spectral lower bound for the truncated reciprocal kernel ``1/d`` on ``[1, n]``.

    The kernel ``F(d) = 1/d`` for ``1 <= d <= n_support`` is the canonical
    example of a convolutor whose one-sided truncations are *not*
    uniformly bounded: its ``l^2`` norm is the symbol value at frequency 0,
    the harmonic number ``H_n >= log(n)``, which grows without bound.  The
    kernel is positive, so :func:`convolutor_interval` gives that norm
    exactly as ``||F||_1``, with no line sup.  Returns
    ``(lower, log(n_support))``.
    """
    n_support = int(n_support)
    if n_support < 1:
        raise DomainError(f"support length must be >= 1, got {n_support}")
    d = np.arange(1, n_support + 1)
    F = ZKernel(tree_params(q), 1, 1.0 / d)
    interval = convolutor_interval(F, 2.0)
    return interval.lower, math.log(n_support)


def truncation_bound(F, J, eps, p):
    """Certified bound for the ``l^p`` convolution norm of ``F * 1_{[J, inf)}``.

    For every ``J >= 0`` the truncated kernel satisfies

        ||F 1_{[J,inf)}|| <= ||F|| + (1/(q^eps - 1) + J) * H,

    where ``H`` is the strip sup :func:`hinf_strip_norm` of the symbol on
    the strip of width ``eps``: the negative tail of ``F`` is summed
    against the geometric decay the strip analyticity forces, and the
    ``[0, J)`` block is bounded entry-by-entry by the symbol sup.  The
    first term is replaced by its certified upper bound, so the result is
    a true bound whenever the strip norm is finite.  Where ``q^eps``
    leaves float64, ``1/(q^eps - 1)`` is ``q^-eps`` to far below one ulp
    and is taken as such.
    """
    J = int(J)
    if J < 0:
        raise DomainError(f"truncation index must be >= 0, got {J}")
    p = check_exponent(p)
    q = F.params.q
    upper, _ = convolutor_upper(F, p)
    big_h = hinf_strip_norm(F, eps)
    try:
        tail = 1.0 / (q ** float(eps) - 1.0)
    except OverflowError:
        tail = q ** -float(eps)
    return upper + (tail + J) * big_h
