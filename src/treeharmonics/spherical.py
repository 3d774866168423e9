"""Spherical functions and the radial transform pair on a homogeneous tree.

A radial kernel assigns one value to each hop distance from a base
vertex.  Its spherical transform, the pairing with the spherical
functions ``phi_z`` (the radial eigenfunctions of the nearest-neighbour
averaging operator), is evaluated as the cosine sum of the kernel's even
Abel sequence; ``phi_z`` itself is kept as the independent reference.
The transform is inverted by integrating against the reciprocal
c-function over one period of the frequency torus.

Everything here is trigonometric-polynomial exact in spirit: transforms
of finitely supported kernels are entire functions of the spectral
parameter, and the trapezoid rule on a power-of-two torus grid recovers
the kernel to near machine precision once the grid resolves the support.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import (
    POLE_GUARD,
    DomainError,
    check_grid,
    torus_grid,
    tree_params,
)
from .zline import inverse_fourier_z


@dataclass(frozen=True)
class RadialKernel:
    """Radial function on the tree, stored by hop distance.

    ``values[d]`` is the common value on the sphere of radius ``d`` about
    the base vertex; the stored window is ``d = 0 .. radius``.  Trailing
    zero spheres are dropped when the kernel is built (radius 0 at
    minimum), so zero-padded values build the same kernel as unpadded ones.
    """

    params: object
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", tree_params(self.params))
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("radial kernel needs a nonempty 1-d value array")
        if not np.isfinite(vals).all():
            raise DomainError("radial kernel values must be finite (no NaN or infinity)")
        nz = np.flatnonzero(vals)
        hi = int(nz[-1]) if nz.size else 0
        object.__setattr__(self, "values", vals[: hi + 1].copy())

    @property
    def radius(self):
        return self.values.size - 1

    def at(self, d):
        d = int(d)
        if d < 0:
            raise DomainError(f"hop distance must be >= 0, got {d}")
        return complex(self.values[d]) if d <= self.radius else 0.0 + 0.0j

    def l1_on_tree(self):
        """``l^1`` norm of the radial extension: sum of ``|values|`` times sphere sizes.

        A norm that overflows float64 raises :class:`DomainError`.
        """
        with np.errstate(over="ignore"):
            sizes = sphere_sizes(self.params, self.radius)
            value = float(sizes @ np.abs(self.values))
        if not math.isfinite(value):
            raise DomainError(
                "the l1 norm on the tree overflows float64: the kernel values are too large"
            )
        return value


def radial_kernel(q, values):
    """Build a :class:`RadialKernel` over the tree of degree parameter ``q``."""
    return RadialKernel(tree_params(q), np.asarray(values, dtype=complex))


def delta_kernel(q):
    """Unit mass at the base vertex."""
    return radial_kernel(q, [1.0])


def ball_kernel(q, r):
    """Indicator of the closed ball of radius ``r`` about the base vertex."""
    r = int(r)
    if r < 0:
        raise DomainError(f"ball radius must be >= 0, got {r}")
    return radial_kernel(q, np.ones(r + 1))


def sphere_kernel(q, r):
    """Indicator of the sphere of radius ``r`` about the base vertex."""
    r = int(r)
    if r < 0:
        raise DomainError(f"sphere radius must be >= 0, got {r}")
    vals = np.zeros(r + 1)
    vals[r] = 1.0
    return radial_kernel(q, vals)


def sphere_sizes(params, dmax):
    """Sizes ``1, q+1, (q+1)q, ...`` of the spheres of radius ``0 .. dmax``."""
    q = tree_params(params).q
    sizes = (q + 1) * float(q) ** np.arange(-1, int(dmax))
    sizes[0] = 1.0
    return sizes


@dataclass(frozen=True)
class TorusSymbol:
    """Symbol samples on the standard power-of-two grid of the frequency torus."""

    params: object
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", tree_params(self.params))
        samp = np.asarray(self.samples, dtype=complex)
        if samp.ndim != 1:
            raise DomainError("symbol samples must form a 1-d array")
        check_grid(samp.size)
        object.__setattr__(self, "samples", samp)

    @property
    def grid(self):
        return torus_grid(self.params, self.samples.size)

    def __len__(self):
        return self.samples.size


# ---------------------------------------------------------------------------
# c-function
# ---------------------------------------------------------------------------

def c_function(params, z):
    """Harish-Chandra style c-function ``c(z)`` of the tree.

    Meromorphic and periodic with period ``2*pi/log(q)``; its poles sit on
    the real half-period lattice, where evaluation raises
    :class:`~treeharmonics.params.DomainError` (:func:`spherical_function`
    needs no ``c`` and is regular there).
    Satisfies ``c(z) + c(-z) = 1``.
    """
    params = tree_params(params)
    z = np.asarray(z, dtype=complex)
    half = params.period / 2.0
    m = np.rint(z.real / half)
    if np.any(np.abs(z - half * m) < POLE_GUARD):
        raise DomainError("c-function pole: z within guard distance of the real half-period lattice")
    rq = math.sqrt(params.q)
    w = np.exp(1j * z * params.log_q)
    out = (rq / (params.q + 1)) * (rq * w - (1.0 / rq) / w) / (w - 1.0 / w)
    return out if z.shape else complex(out)


def c_inverse(params, z):
    """Reciprocal ``1/c(z)`` in regularized form.

    The reciprocal extends holomorphically across the real lattice (the
    poles of ``c`` become zeros); its only singularities sit on the line
    ``Im z = 1/2`` shifted by the half-period lattice, where evaluation
    raises :class:`~treeharmonics.params.DomainError`.
    """
    params = tree_params(params)
    z = np.asarray(z, dtype=complex)
    half = params.period / 2.0
    shifted = z - 0.5j
    m = np.rint(shifted.real / half)
    if np.any(np.abs(shifted - half * m) < POLE_GUARD):
        raise DomainError("1/c pole: z within guard distance of the shifted half-period lattice")
    rq = math.sqrt(params.q)
    w = np.exp(1j * z * params.log_q)
    out = ((params.q + 1) / rq) * (w - 1.0 / w) / (rq * w - (1.0 / rq) / w)
    return out if z.shape else complex(out)


def c_inverse_shifted(params, s, v):
    """``1/c(-s - i v)`` for real frequencies ``s`` on the line ``Im z = -v``.

    Regular for every real ``s`` as long as ``v`` stays inside
    ``(-1/2, 1/2]``; the lower endpoint is excluded because the line
    ``Im z = 1/2`` carries the zeros of ``c``.
    """
    params = tree_params(params)
    v = float(v)
    if not (-0.5 + POLE_GUARD <= v <= 0.5):
        raise DomainError(
            f"contour shift must lie in (-1/2, 1/2], safely above -1/2; got {v}"
        )
    s = np.asarray(s, dtype=float)
    return c_inverse(params, -s - 1j * v)


# ---------------------------------------------------------------------------
# Spherical functions
# ---------------------------------------------------------------------------

def spherical_function(params, z, d):
    """Spherical function ``phi_z(d)``, broadcasting over ``z`` and ``d``.

    Evaluated in the Chebyshev form, with ``t = z log q``,

        phi_z(d) = q^{-d/2} (q U_d(cos t) - U_{d-2}(cos t)) / (q + 1),

    which holds for every complex ``z``: it has no removable singularity
    on the real half-period lattice, where the c-function expansion
    ``c(z) q^{(iz - 1/2) d} + c(-z) q^{(-iz - 1/2) d}`` cancels.  ``t`` is
    first reduced by the half period (the sign ``(-1)^{d m}`` at the
    ``m``-th lattice point) and reflected into ``Im t <= 0``; there
    ``U_k(cos t) = e^{ikt} expm1(-2i(k+1)t) / expm1(-2it)`` overflows only
    when ``phi`` does, and its value ``k + 1`` at ``t = 0`` gives the
    lattice value ``(1 + d (q-1)/(q+1)) q^{-d/2}``.  On the closed strip
    ``|Im z| <= 1/2`` the modulus never exceeds 1.
    """
    params = tree_params(params)
    z = np.asarray(z, dtype=complex)
    d = np.asarray(d)
    if not np.issubdtype(d.dtype, np.integer):
        rounded = np.rint(d)
        if not np.array_equal(rounded, np.asarray(d, dtype=float)):
            raise DomainError("hop distances must be integers")
        d = rounded.astype(int)
    if np.any(d < 0):
        raise DomainError("hop distances must be >= 0")

    q, lg = params.q, params.log_q
    half = params.period / 2.0
    m = np.rint(z.real / half)
    t = (z - half * m) * lg
    t = np.where(t.imag > 0.0, -t, t)
    e1 = np.expm1(-2j * t)
    at_zero = e1 == 0.0
    den = (q + 1.0) * np.where(at_zero, 1.0, e1)
    quot = (q * np.expm1(-2j * (d + 1) * t) - (1.0 + e1) * np.expm1(-2j * (d - 1) * t)) / den
    quot = np.where(at_zero, 1.0 + d * (q - 1.0) / (q + 1.0), quot)
    out = np.exp(d * (1j * t - 0.5 * lg)) * quot
    out = np.where((m % 2 == 1) & (d % 2 == 1), -out, out)
    return out if out.shape else complex(out)


def spectral_eigenvalue(params, z):
    """Averaging-operator eigenvalue ``(sqrt(q)/(q+1)) (q^{iz} + q^{-iz})`` at ``phi_z``."""
    params = tree_params(params)
    z = np.asarray(z, dtype=complex)
    w = np.exp(1j * z * params.log_q)
    out = (math.sqrt(params.q) / (params.q + 1)) * (w + 1.0 / w)
    return out if z.shape else complex(out)


# ---------------------------------------------------------------------------
# Transform pair
# ---------------------------------------------------------------------------

def _cosine_table(z, radius, log_q):
    """Mirrored table ``cos(j z log q)``, ``j = -radius .. radius``, one row per point of ``z``.

    ``z`` is a 1-d array.  The complex cosine is even, so the columns
    ``j < 0`` are the columns ``j > 0`` mirrored, bit for bit: only the
    ``radius + 1`` columns ``j >= 0`` are evaluated.  Each column depends
    on ``j`` and ``z`` alone, so a table built for radius ``J`` holds the
    table of every radius ``<= J`` as its middle columns, byte for byte.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.cos(np.outer(z, np.arange(radius + 1)) * log_q)
    return np.concatenate([half[:, :0:-1], half], axis=1)


def _cosine_sum(table, seq):
    """``table @ seq.values``, the cosine sum of an Abel sequence; an overflow raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = table @ seq.values
    if not np.isfinite(out).all():
        raise DomainError(
            "the spherical transform overflows float64: the kernel values or |Im z| are too large"
        )
    return out


def spherical_transform_at(kernel, z):
    """Spherical transform of a radial kernel at arbitrary spectral points ``z``.

    ``FT k (z) = sum_{|j|<=J} a_j cos(j z log q)``, the cosine sum of the
    even Abel sequence ``a`` of :func:`~treeharmonics.abel.abel_forward`.
    The sum is finite, so the transform is entire and may be evaluated
    anywhere in the complex plane.  At real ``z`` a real kernel has a
    real transform: every imaginary part is exactly ``0.0``.  Coefficients
    or a transform that overflow float64, from large kernel values or a
    large ``|Im z|``, raise :class:`DomainError`.

    The cosine table evaluates only its ``J + 1`` columns ``j >= 0``
    (:func:`_cosine_table`).  At real ``z`` (a real array or scalar) it is
    the real cosine, which equals the complex cosine's real part bit for
    bit at a fraction of its cost; complex ``z`` keeps the complex cosine.
    """
    from .abel import abel_forward  # abel imports RadialKernel from this module

    seq = abel_forward(kernel)
    z = np.asarray(z)
    z = z.astype(complex if z.dtype.kind == "c" else float, copy=False)
    out = _cosine_sum(_cosine_table(z.ravel(), kernel.radius, kernel.params.log_q), seq)
    return out.reshape(z.shape) if z.shape else complex(out[0])


class _GridCosines:
    """Cosine table of one standard grid, rebuilt wider when a larger radius asks for it."""

    def __init__(self, params, n):
        self.grid, self.log_q = torus_grid(params, n), params.log_q
        self.table = np.empty((n, 0), dtype=complex)

    def columns(self, radius):
        """The table of ``radius``, its middle ``2 radius + 1`` columns, as a read-only view."""
        table = self.table
        if table.shape[1] <= 2 * radius:
            table = _cosine_table(self.grid, radius, self.log_q).astype(complex)
            table.flags.writeable = False
            self.table = table
        J = table.shape[1] // 2
        return table[:, J - radius : J + radius + 1]


@functools.lru_cache(maxsize=8)
def _grid_cosines(params, n):
    """The :class:`_GridCosines` of the standard ``n``-point grid, one per ``(params, n)``.

    Its table is shared by every call, so it is read-only.  Each of the at
    most 8 grids keeps one complex128 table of ``n (2 J + 1)`` entries,
    ``J`` the largest radius transformed on that grid: the real cosines
    with ``+0.0`` imaginary parts, so that the product with the complex
    Abel sequence reads a view of it and casts nothing, twice the float64
    table one call of :func:`spherical_transform_at` on that grid builds
    and frees, 140 KB at ``n = 512`` and ``J = 8``.
    """
    return _GridCosines(params, n)


def spherical_transform(kernel, n=512):
    """Sample the spherical transform on the standard ``n``-point torus grid.

    The cosine sum of :func:`spherical_transform_at` at the grid points,
    with the same bytes.  The grid's cosine table is computed once per
    ``(q, n)`` and widened only when a larger radius arrives
    (:func:`_grid_cosines`: at most 8 grids, one complex128 table of
    ``n (2 J + 1)`` entries each, ``J`` the largest radius transformed on
    that grid).  :func:`inverse_spherical_transform` recovers kernels of
    radius ``< n/2`` from the samples.
    """
    from .abel import abel_forward

    n = check_grid(n)
    seq = abel_forward(kernel)
    table = _grid_cosines(kernel.params, n).columns(kernel.radius)
    return TorusSymbol(kernel.params, _cosine_sum(table, seq))


@functools.lru_cache(maxsize=8)
def _inversion_weights(params, n):
    """``1/c(-s)`` on the standard ``n``-point grid, computed once per ``(params, n)``.

    The array is shared by every call, so it is read-only.
    """
    weights = c_inverse(params, -torus_grid(params, n))
    weights.flags.writeable = False
    return weights


def inverse_spherical_transform(symbol, radius):
    """Recover a radial kernel from its sampled spherical transform.

    Applies the inversion formula

        k(d) = 2 c_G q^{-d/2} \\int k~(s) c(-s)^{-1} q^{i s d} ds

    with the integral replaced by the periodic trapezoid rule on the
    symbol's grid (``c_G`` is the Plancherel constant of the tree).  The
    quadrature error decays exponentially in the grid size; resolutions of
    512 recover kernels of radius <= 8 to around 1e-12.  The weights
    ``1/c(-s)`` depend on ``q`` and the grid size alone and are computed
    once per pair (:func:`_inversion_weights`: at most 8 grids, ``n``
    complex entries each).  An ``n``-point grid resolves the distances
    ``d < n/2`` only: past them the trapezoid sum returns the aliases of
    smaller distances, so a radius with ``n <= 2 radius`` raises
    :class:`DomainError` naming the grid it needs, as does a sum that
    overflows float64.
    """
    params = symbol.params
    radius = int(radius)
    if radius < 0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    n = symbol.samples.size
    if n <= 2 * radius:
        raise DomainError(
            f"inverting to radius {radius} needs a grid of more than {2 * radius} points, "
            f"got {n}: use a power of two >= {max(64, 1 << (2 * radius).bit_length())}"
        )
    d = np.arange(radius + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = symbol.samples * _inversion_weights(params, n)
        vals = 2.0 * params.plancherel_const * params.period * inverse_fourier_z(weights, d)
        vals *= params.qpow(-d.astype(float) / 2.0)
    if not np.isfinite(vals).all():
        raise DomainError(
            "the inverse spherical transform overflows float64: the symbol values are too large"
        )
    return RadialKernel(params, vals)
