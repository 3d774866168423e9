"""Convolution kernels on the integer line and their multiplier norms.

A finitely supported kernel ``F`` on the integers acts by convolution on
every ``l^p`` space.  Its operator norm is controlled by the boundary
values of the symbol

    (FT F)(z) = sum_d F(d) q^{-i d z},

a trigonometric polynomial in ``z`` with period ``2*pi/log(q)`` that
extends holomorphically to every horizontal strip.  Exact values of the
``l^p`` operator norm are unknown in general, so this module reports
certified *intervals*: the upper end comes from interpolation between the
exact ``l^1`` norm and the symbol sup, the lower end from explicit trial
vectors whose convolution ratios are computed exactly.

The trial dictionary is versioned (:data:`DICTIONARY_VERSION`); any change
to its contents must bump the version string, which is quoted in every
report that depends on a lower bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .params import (
    DomainError,
    check_exponent,
    check_grid,
    dual_exponent,
    torus_grid,
    tree_params,
)

#: Version tag of the lower-bound trial dictionary.  Bump when the trial
#: set changes, so stored reports remain attributable.
DICTIONARY_VERSION = "dict-v1"

_BOX_LENGTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
_MODULATED_LENGTHS = (4, 16, 64, 256, 1024, 4096)
_N_FREQUENCIES = 32
_SIGN_LENGTHS = (16, 64, 256, 1024)
_SIGNS_PER_LENGTH = 4
_POWER_ITERATES = 50
_POWER_WINDOW = 1024


@dataclass(frozen=True)
class StripDomain:
    """Open horizontal strip ``-eps < Im z < 0`` below the real frequency axis."""

    eps: float

    def __post_init__(self):
        if not (self.eps > 0.0) or not math.isfinite(self.eps):
            raise DomainError(f"strip width must be positive and finite, got {self.eps}")

    def contains(self, z):
        return -self.eps < complex(z).imag < 0.0


@dataclass(frozen=True)
class ZKernel:
    """Finitely supported kernel on the integers.

    ``values[i]`` is the kernel value at the integer ``offset + i``.
    """

    params: object
    offset: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", tree_params(self.params))
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("kernel values must form a nonempty 1-d array")
        if not np.isfinite(vals).all():
            raise DomainError("kernel values must be finite (no NaN or infinity)")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "offset", int(self.offset))

    @property
    def support(self):
        """Index range ``(d_min, d_max)`` spanned by the stored window."""
        return self.offset, self.offset + self.values.size - 1

    @property
    def indices(self):
        return self.offset + np.arange(self.values.size)

    def at(self, d):
        """Kernel value at integer ``d`` (0 outside the stored window)."""
        i = int(d) - self.offset
        if 0 <= i < self.values.size:
            return complex(self.values[i])
        return 0.0 + 0.0j

    def l1(self):
        return float(np.sum(np.abs(self.values)))

    def trimmed(self):
        """Copy with leading/trailing zero entries removed."""
        nz = np.flatnonzero(np.abs(self.values) != 0.0)
        if nz.size == 0:
            return ZKernel(self.params, 0, np.zeros(1, dtype=complex))
        lo, hi = nz[0], nz[-1]
        return ZKernel(self.params, self.offset + int(lo), self.values[lo : hi + 1].copy())


def zkernel(q, values, offset=0):
    """Build a :class:`ZKernel` from raw values starting at index ``offset``."""
    return ZKernel(tree_params(q), offset, np.asarray(values, dtype=complex))


def delta_z(q, d=0):
    """Unit mass at the single integer ``d``."""
    return ZKernel(tree_params(q), int(d), np.ones(1, dtype=complex))


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


def _eval_symbol(vals, dvals, z, log_q, chunk=2048):
    """Chunked evaluation of ``sum_d vals_d exp(-i d z log q)`` over flat ``z``."""
    out = np.empty(z.shape, dtype=complex)
    for start in range(0, z.size, chunk):
        block = z[start : start + chunk]
        out[start : start + chunk] = np.exp(
            -1j * log_q * np.multiply.outer(block, dvals)
        ) @ vals
    return out


def inverse_fourier_z(symbol, d, params=None):
    """Recover kernel values from ``n`` equispaced symbol samples.

    ``symbol`` is either a sampled-symbol object (with ``params``,
    ``samples`` and ``grid`` attributes) or a plain array of samples on the
    standard grid, in which case ``params`` must be given.  The quadrature
    is the periodic trapezoid rule, which is exact whenever the symbol is
    a trigonometric polynomial of degree below ``n/2``.
    """
    if params is None:
        params = getattr(symbol, "params", None)
        if params is None:
            raise DomainError("plain sample arrays need an explicit params argument")
    params = tree_params(params)
    samples = np.asarray(getattr(symbol, "samples", symbol), dtype=complex)
    n = check_grid(samples.size)
    grid = torus_grid(params, n)
    d = np.asarray(d)
    phases = np.exp(1j * params.log_q * np.multiply.outer(d.ravel().astype(float), grid))
    out = phases @ samples / n
    return out.reshape(d.shape) if d.shape else complex(out[0])


# ---------------------------------------------------------------------------
# Line suprema of the symbol
# ---------------------------------------------------------------------------

def _line_coefficients(F, v):
    """Coefficients of ``s -> (FT F)(s + i v)`` as a trigonometric polynomial."""
    d = F.indices.astype(float)
    return F.values * F.params.qpow(d * v), d


def _line_sup(F, v):
    """Sup of ``|FT F|`` on the horizontal line ``Im z = v``.

    Returns ``(value, n)`` where ``n`` is the grid resolution, four times
    the kernel span rounded up to a power of two, within ``[1024, 2^14]``.
    The grid maximum is refined by two Newton steps on the stationarity
    equation of ``|symbol|^2`` at every local maximum, so the reported
    value is always an attained (hence certified) value of ``|FT F|``.
    """
    span = max(abs(F.offset), abs(F.offset + F.values.size - 1), 1)
    n = min(max(1024, 4 * _next_pow2(span)), 1 << 14)
    coeffs, dvals = _line_coefficients(F, v)
    tau = F.params.period
    grid = torus_grid(F.params, n)
    mag = np.abs(_eval_symbol(coeffs, dvals, grid, F.params.log_q))
    best = float(mag.max())
    # local maxima on the circular grid
    left = np.roll(mag, 1)
    right = np.roll(mag, -1)
    locs = np.flatnonzero((mag >= left) & (mag >= right))
    h = tau / n
    log_q = F.params.log_q
    for i in locs:
        s = grid[i]
        for _ in range(2):
            s = _newton_step(coeffs, dvals, s, log_q, h)
        val = float(abs(_eval_symbol(coeffs, dvals, np.array([s]), log_q)[0]))
        if val > best:
            best = val
    return best, n


def _newton_step(coeffs, dvals, s, log_q, h):
    """One Newton step on ``g'(s) = 0`` for ``g = |symbol|^2``, clamped to one cell."""
    e = np.exp(-1j * dvals * (s * log_q))
    m = np.sum(coeffs * e)
    m1 = np.sum(coeffs * (-1j * dvals * log_q) * e)
    m2 = np.sum(coeffs * (-(dvals * log_q) ** 2) * e)
    g1 = 2.0 * (m1 * np.conj(m)).real
    g2 = 2.0 * ((abs(m1)) ** 2 + (m2 * np.conj(m)).real)
    if g2 >= 0.0 or not np.isfinite(g2):
        return s
    step = -g1 / g2
    return s + float(np.clip(step, -h, h))


def _next_pow2(n):
    return 1 << max(int(n) - 1, 0).bit_length()


# ---------------------------------------------------------------------------
# Certified norm intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormInterval:
    """Certified bracket ``lower <= ||.|| <= upper`` for an operator norm.

    ``lower_method``/``upper_method`` record how each end was produced
    (trial-vector name with dictionary version, interpolation exponents,
    grid resolutions) so the numbers remain auditable.
    """

    lower: float
    upper: float
    lower_method: str
    upper_method: str

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-12) + 1e-300:
            raise RuntimeError(
                f"inconsistent interval: lower {self.lower} exceeds upper {self.upper}"
            )


def convolutor_upper(F, p):
    """Certified upper bound for the norm of convolution by ``F`` on ``l^p``.

    Returns ``(value, method)``.  At ``p`` in ``{1, inf}`` the bound is the
    exact ``l^1`` norm; at ``p == 2`` it is the refined grid supremum of the
    symbol (the grid resolution is recorded); otherwise it interpolates the
    two with exponent ``theta = |2/p - 1|``.
    """
    p = check_exponent(p)
    l1 = F.l1()
    if p == 1.0 or math.isinf(p):
        return l1, "l1-exact"
    if p == 2.0:
        sup, used = _line_sup(F, 0.0)
        return sup, f"spectral-sup(grid={used})"
    theta = abs(2.0 / p - 1.0)
    sup, used = _line_sup(F, 0.0)
    if l1 == 0.0:
        return 0.0, "l1-exact"
    val = l1**theta * sup ** (1.0 - theta)
    return val, f"interp(l1,sup;theta={theta:.6g},grid={used})"


def lp_norm(x, p):
    """``l^p`` norm of a vector, with ``p = inf`` meaning the max norm."""
    x = np.asarray(x)
    if math.isinf(p):
        return float(np.max(np.abs(x))) if x.size else 0.0
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def phase_power(y, expo):
    """``phase(y) * |y|**expo`` entrywise, with 0 mapped to 0."""
    mag = np.abs(y)
    out = np.zeros_like(y, dtype=complex)
    nz = mag > 0.0
    out[nz] = (y[nz] / mag[nz]) * mag[nz] ** expo
    return out


def duality_ascent(apply, adjoint, norm, x, p, iters):
    """Duality-map ascent for the ``l^p -> l^p`` ratio of a linear map.

    Starting from ``x``, each step normalizes the iterate, yields
    ``(k, norm(apply(x_k)))`` for the ``k``-th iterate, and moves to the
    ``p'``-th power phase of ``adjoint`` applied to the ``p``-th power phase
    of the image; ``adjoint`` also restricts to the trial window.  Every
    yielded value is the exact ratio of a concrete trial vector, so each is
    a certified lower bound whether or not the ascent has converged.  Stops
    after ``iters`` iterates, when two successive values agree to a
    relative ``1e-10``, when an iterate vanishes, or before yielding a
    non-finite value.
    """
    if p <= 1.0 or math.isinf(p):
        raise DomainError("duality-map iteration needs 1 < p < inf")
    pd = dual_exponent(p)
    prev = -1.0
    for k in range(1, iters + 1):
        nx = norm(x)
        if nx == 0.0:
            return
        x = x / nx
        y = apply(x)
        est = norm(y)
        if not math.isfinite(est):
            return
        yield k, est
        if prev >= 0.0 and abs(est - prev) <= 1e-10 * max(est, 1e-300):
            return
        prev = est
        x = phase_power(adjoint(phase_power(y, p - 1.0)), pd - 1.0)


def convolutor_interval(F, p, seed=0):
    """Certified two-sided bracket for the ``l^p`` convolution norm of ``F``.

    The upper end is :func:`convolutor_upper`.  For ``p`` in ``{1, inf}``
    the interval collapses to the exact ``l^1`` norm (the delta trial and
    a matched-sign trial attain it), and at ``p == 2`` both ends are the
    refined grid supremum of the symbol.  At every other exponent the
    lower end is the best finite exact convolution ratio over the
    versioned trial dictionary: deltas, dyadic boxes, modulated boxes at
    :data:`_N_FREQUENCIES` equispaced frequencies, seeded random-sign
    vectors, and the iterates of :func:`duality_ascent`, named
    ``power[<iterates run>]``.  A trial whose ratio overflows certifies
    nothing and is skipped.
    """
    p = check_exponent(p)
    F = F.trimmed()
    vals = F.values
    upper, upper_method = convolutor_upper(F, p)
    if p == 2.0:
        return NormInterval(upper, upper, upper_method, upper_method)
    if p == 1.0 or math.isinf(p):
        method = "delta" if p == 1.0 else "matched-sign"
        return NormInterval(upper, upper, f"trial:{method}({DICTIONARY_VERSION})", upper_method)

    best = 0.0
    best_name = "none"

    def consider(ratio, name):
        nonlocal best, best_name
        if best < ratio < math.inf:
            best = ratio
            best_name = name

    def trial(f, name):
        denom = lp_norm(f, p)
        if denom != 0.0:
            consider(lp_norm(np.convolve(f, vals), p) / denom, name)

    trial(np.ones(1, dtype=complex), "delta")
    for L in _BOX_LENGTHS:
        trial(np.ones(L, dtype=complex), f"box[{L}]")
    tau = F.params.period
    log_q = F.params.log_q
    for k in range(_N_FREQUENCIES):
        s0 = -tau / 2.0 + tau * k / _N_FREQUENCIES
        for L in _MODULATED_LENGTHS:
            idx = np.arange(L)
            trial(np.exp(1j * s0 * log_q * idx), f"modbox[{L},k={k}]")
    rng = np.random.default_rng(seed)
    for L in _SIGN_LENGTHS:
        for rep in range(_SIGNS_PER_LENGTH):
            trial(rng.integers(0, 2, size=L) * 2.0 - 1.0, f"sign[{L},#{rep}]")
    window = min(_POWER_WINDOW, 4 * max(vals.size, 16))
    lag = vals.size - 1
    rev = np.conj(vals[::-1])
    used, ratio = 0, 0.0
    for used, value in duality_ascent(
        lambda x: np.convolve(x, vals),
        lambda w: np.convolve(w, rev)[lag : lag + window],
        lambda x: lp_norm(x, p),
        np.ones(window, dtype=complex),
        p,
        _POWER_ITERATES,
    ):
        ratio = max(ratio, value)
    consider(ratio, f"power[{used}]")
    best = min(best, upper)  # guard against last-ulp overshoot of the exact bound
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
    two boundary lines; each line sup is computed on a refined grid.
    """
    StripDomain(eps)
    top, _ = _line_sup(F, 0.0)
    bottom, _ = _line_sup(F, -float(eps))
    return max(top, bottom)


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
    the harmonic number ``H_n >= log(n)``, which grows without bound.
    Returns ``(lower, log(n_support))``.
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
    a true bound whenever the strip norm is finite.
    """
    J = int(J)
    if J < 0:
        raise DomainError(f"truncation index must be >= 0, got {J}")
    p = check_exponent(p)
    q = F.params.q
    upper, _ = convolutor_upper(F, p)
    big_h = hinf_strip_norm(F, eps)
    return upper + (1.0 / (q ** float(eps) - 1.0) + J) * big_h
