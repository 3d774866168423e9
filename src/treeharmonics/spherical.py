"""Spherical functions and the radial transform pair on a homogeneous tree.

A radial kernel assigns one value to each hop distance from a base
vertex.  Its spherical transform is the pairing with the spherical
functions ``phi_z``, the radial eigenfunctions of the nearest-neighbour
averaging operator; the transform is inverted by integrating against the
reciprocal c-function over one period of the frequency torus.

Everything here is trigonometric-polynomial exact in spirit: transforms
of finitely supported kernels are entire functions of the spectral
parameter, and the trapezoid rule on a power-of-two torus grid recovers
the kernel to near machine precision once the grid resolves the support.
"""

import math
from dataclasses import dataclass

import numpy as np

from .params import (
    LATTICE_SWITCH,
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
    the base vertex; the stored window is ``d = 0 .. radius``.
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
        object.__setattr__(self, "values", vals)

    @property
    def radius(self):
        return self.values.size - 1

    def at(self, d):
        d = int(d)
        if d < 0:
            raise DomainError(f"hop distance must be >= 0, got {d}")
        return complex(self.values[d]) if d <= self.radius else 0.0 + 0.0j

    def trimmed(self):
        """Copy with trailing zero spheres removed (radius 0 at minimum)."""
        nz = np.flatnonzero(np.abs(self.values) != 0.0)
        hi = int(nz[-1]) if nz.size else 0
        return RadialKernel(self.params, self.values[: hi + 1].copy())

    def l1_on_tree(self):
        """``l^1`` norm of the radial extension: sum of ``|values|`` times sphere sizes."""
        sizes = sphere_sizes(self.params, self.radius)
        return float(sizes @ np.abs(self.values))


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
    params = tree_params(params)
    q = params.q
    sizes = np.empty(int(dmax) + 1)
    sizes[0] = 1.0
    if dmax >= 1:
        sizes[1:] = (q + 1) * float(q) ** np.arange(0, int(dmax))
    return sizes


@dataclass(frozen=True)
class TorusSymbol:
    """Symbol samples on the standard power-of-two grid of the frequency torus.

    ``v`` tags the horizontal line ``Im z = v`` the samples were taken on;
    plain transforms live on the real line ``v = 0``.
    """

    params: object
    samples: np.ndarray
    v: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "params", tree_params(self.params))
        samp = np.asarray(self.samples, dtype=complex)
        if samp.ndim != 1:
            raise DomainError("symbol samples must form a 1-d array")
        check_grid(samp.size)
        object.__setattr__(self, "samples", samp)
        object.__setattr__(self, "v", float(self.v))

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
    :class:`~treeharmonics.params.DomainError` (use the spherical-function
    routines, which switch to the exact lattice formulas there).
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


def c_inverse_line_sup(params, v):
    """Exact sup of ``|c_inverse_shifted(s, v)|`` over real ``s``.

    On the line the modulus squared is ``((q+1)^2/q) (A - c)/(B - c)``
    with ``A = q^{2v} + q^{-2v}``, ``B = q^{1+2v} + q^{-1-2v}`` and
    ``c = 2 cos(2 s log q)`` sweeping ``[-2, 2]``; the ratio is monotone in
    ``c`` with direction given by the sign of ``A - B``, so the sup is
    attained at an endpoint and evaluates in closed form.  At ``v = 0``
    this recovers the value ``2 = 1/c(tau/4)``.
    """
    params = tree_params(params)
    v = float(v)
    if not (-0.5 + POLE_GUARD <= v <= 0.5):
        raise DomainError(
            f"contour shift must lie in (-1/2, 1/2], safely above -1/2; got {v}"
        )
    q = params.q
    A = q ** (2.0 * v) + q ** (-2.0 * v)
    B = q ** (1.0 + 2.0 * v) + q ** (-1.0 - 2.0 * v)
    ratio = (A + 2.0) / (B + 2.0) if A <= B else (A - 2.0) / (B - 2.0)
    return (q + 1.0) / math.sqrt(q) * math.sqrt(ratio)


# ---------------------------------------------------------------------------
# Spherical functions
# ---------------------------------------------------------------------------

def spherical_function(params, z, d):
    """Spherical function ``phi_z(d)``, broadcasting over ``z`` and ``d``.

    Generic spectral parameters use the two-term c-function expansion

        phi_z(d) = c(z) q^{(iz - 1/2) d} + c(-z) q^{(-iz - 1/2) d};

    within :data:`~treeharmonics.params.LATTICE_SWITCH` of the real
    half-period lattice the expansion degenerates and the exact lattice
    value ``(1 + d (q-1)/(q+1)) q^{-d/2}`` is used instead, with the sign
    ``(-1)^d`` at odd lattice points.  On the closed strip
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
    zb, db = np.broadcast_arrays(z, d)
    shape = zb.shape
    zb = zb.ravel()
    db = db.ravel()
    out = np.empty(zb.shape, dtype=complex)

    half = params.period / 2.0
    m = np.rint(zb.real / half)
    on_lattice = np.abs(zb - half * m) < LATTICE_SWITCH

    gen = ~on_lattice
    if np.any(gen):
        zg = zb[gen]
        dg = db[gen].astype(float)
        cp = c_function(params, zg)
        cm = c_function(params, -zg)
        lg = params.log_q
        out[gen] = cp * np.exp((1j * zg - 0.5) * dg * lg) + cm * np.exp(
            (-1j * zg - 0.5) * dg * lg
        )
    if np.any(on_lattice):
        dl = db[on_lattice]
        base = (1.0 + dl * (params.q - 1.0) / (params.q + 1.0)) * params.qpow(
            -dl.astype(float) / 2.0
        )
        odd_site = (m[on_lattice].astype(int) % 2) != 0
        sign = np.where(odd_site & (dl % 2 != 0), -1.0, 1.0)
        out[on_lattice] = base * sign

    out = out.reshape(shape)
    return out if shape else complex(out)


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

def spherical_transform_at(kernel, z):
    """Spherical transform of a radial kernel at arbitrary spectral points ``z``.

    ``FT k (z) = k(0) + sum_{d>=1} (q+1) q^{d-1} k(d) phi_z(d)``; the sum
    is finite, so the transform is entire and may be evaluated anywhere in
    the complex plane (complex ``z`` damp or amplify by ``q^{|Im z| d}``).
    """
    params = kernel.params
    z = np.asarray(z, dtype=complex)
    d = np.arange(kernel.radius + 1)
    phi = spherical_function(params, z.ravel()[:, None], d[None, :])
    weighted = sphere_sizes(params, kernel.radius) * kernel.values
    out = phi @ weighted
    return out.reshape(z.shape) if z.shape else complex(out[0])


def spherical_transform(kernel, n=512):
    """Sample the spherical transform on the standard ``n``-point torus grid."""
    n = check_grid(n)
    grid = torus_grid(kernel.params, n)
    return TorusSymbol(kernel.params, spherical_transform_at(kernel, grid))


def inverse_spherical_transform(symbol, radius):
    """Recover a radial kernel from its sampled spherical transform.

    Applies the inversion formula

        k(d) = 2 c_G q^{-d/2} \\int k~(s) c(-s)^{-1} q^{i s d} ds

    with the integral replaced by the periodic trapezoid rule on the
    symbol's grid (``c_G`` is the Plancherel constant of the tree).  The
    quadrature error decays exponentially in the grid size; resolutions of
    512 recover kernels of radius <= 8 to around 1e-12.
    """
    params = symbol.params
    radius = int(radius)
    if radius < 0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    if symbol.v != 0.0:
        raise DomainError("inversion needs samples on the real line (symbol.v == 0)")
    weights = symbol.samples * c_inverse(params, -symbol.grid)
    d = np.arange(radius + 1)
    vals = 2.0 * params.plancherel_const * params.period * inverse_fourier_z(weights, d, params)
    vals *= params.qpow(-d.astype(float) / 2.0)
    return RadialKernel(params, vals)
