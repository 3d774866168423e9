"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: explicit adjacency lists, per-source
breadth-first searches, dense O(n^2) convolution, high-precision mpmath
evaluations, and exact Fraction cell sums.  None of it shares code paths
with the package, so agreement is evidence rather than tautology.  Some
exceptions build on package types: :func:`ball_opnorm_lower` runs on the
package's explicit ball (checked here against the dense oracles) to check
the radial quotient, and :func:`negative_half_opnorm_lower` runs the same
kind of ascent on the negative-height half alone;
:func:`layered_transference_lhs` and :func:`unpruned_line_sup` keep the
package's earlier, slower forms of the transference sum and the line sup,
:func:`full_ball_transference_check` the transference walk on the whole
ball,
:func:`recurrence_opnorm_lower` the recurrence-driven compression,
:func:`masked_phase_power` the all-masked phase power,
:func:`power_sum_norm` the unmasked ``l^p`` power sum, and
:func:`loop_abel_coefficients` the per-index double loop of the Abel
transform, :func:`cosine_matrix_transform` the full-width cosine table of
the spherical transform, :func:`uncached_grid_transform` the grid transform
with its cosine table built per call, :func:`uncached_inverse_transform`
the inverse transform with its weights evaluated per call,
:func:`trapezoid_line_profile` the line profile by an FFT trapezoid sum,
:func:`row_loop_negative_height_bound` step 1 of the height split with
every row through ``convolutor_upper``, and :func:`angle_three_term_sup`
the three-term line sup by ``np.angle`` and ``_eval_symbol``,
to pin the faster ones;
:func:`affine_negative_height_bound` keeps the earlier, looser step 1 of
the height split, built on the package's line profile, as a
bound the exact shell series must not exceed; and the horocyclic
splitting at the end, which only tests use, cross-checks the line profile
and the Haar measure.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from treeharmonics.abel import abel_forward
from treeharmonics.engine import line_profile, negative_height_bound
from treeharmonics.params import (
    POLE_GUARD,
    DomainError,
    check_exponent,
    dual_exponent,
    strip_halfwidth,
    torus_grid,
    tree_params,
)
from treeharmonics.spherical import c_inverse, c_inverse_shifted, sphere_sizes
from treeharmonics.tree import (
    _TREE_POWER_ITERATES,
    _radial_convolve,
    shell_masses,
)
from treeharmonics.zline import (
    ZKernel,
    _eval_symbol,
    _grid_symbol,
    convolutor_upper,
    fourier_z,
    inverse_fourier_z,
    lp_norm,
)


# ---------------------------------------------------------------------------
# Tree geometry by explicit adjacency lists
# ---------------------------------------------------------------------------

def adjacency_ball(q, radius):
    """Neighbour lists of the ball of the given radius, grown one sphere at a time.

    Vertices are appended sphere by sphere, children in parent order, which
    reproduces the breadth-first indexing used by the package without
    sharing any of its array bookkeeping.  Returns ``(neighbors, parent,
    depth)`` as plain Python lists.
    """
    neighbors = [[]]
    parent = [-1]
    depth = [0]
    frontier = [0]
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            width = (q + 1) if d == 1 else q
            for _ in range(width):
                i = len(parent)
                parent.append(v)
                depth.append(d)
                neighbors.append([v])
                neighbors[v].append(i)
                nxt.append(i)
        frontier = nxt
    return neighbors, parent, depth


def bfs_distances(neighbors, source):
    """Hop distances from ``source`` to every vertex, by plain breadth-first search."""
    dist = [-1] * len(neighbors)
    dist[source] = 0
    queue = [source]
    while queue:
        nxt = []
        for v in queue:
            for w in neighbors[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        queue = nxt
    return dist


def ray_heights(neighbors, parent, depth, radius):
    """Merge depths and heights relative to the first-child reference ray.

    The upward ray is recovered by following, from the base vertex, the
    lowest-index unvisited neighbour at each step; the merge depth of a
    vertex is the depth of its deepest ancestor on that ray, found by
    climbing parents.  Returns ``(merge, height)`` lists.
    """
    ray = [0]
    v = 0
    for _ in range(radius):
        v = min(w for w in neighbors[v] if depth[w] == depth[v] + 1)
        ray.append(v)
    on_ray = set(ray)
    merge = []
    for i in range(len(parent)):
        v = i
        while v not in on_ray:
            v = parent[v]
        merge.append(depth[v])
    height = [2 * m - d for m, d in zip(merge, depth)]
    return merge, height


def dense_convolve(neighbors, kernel_values, f):
    """O(n^2) radial convolution via per-source breadth-first distances."""
    n = len(neighbors)
    kv = list(kernel_values) + [0.0] * n
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        dist = bfs_distances(neighbors, x)
        out[x] = sum(kv[dist[y]] * f[y] for y in range(n))
    return out


def layered_apply(kernel, ball, f, above=True):
    """The negative-height half of the kernel, one ball convolution per occupied height.

    ``u(x) = sum_y f(y) k(d(x, y)) 1[h(y) > h(x)]`` is read, on each height
    ``t``, from the convolution of ``f 1[h > t]``.  With ``above=False``
    the indicator is ``1[h(y) < h(x)]``, which with the conjugate kernel
    gives the adjoint.
    """
    h = ball.height
    u = np.zeros(ball.size, dtype=complex)
    for t in np.unique(h):
        layer = f * ((h > t) if above else (h < t))
        if not np.any(layer):
            continue
        mask = h == t
        u[mask] = ball.convolve(kernel, layer)[mask]
    return u


def layered_transference_lhs(kernel, ball, f, p):
    """``lhs`` of the transference check: ``||u||_p`` for ``u`` of :func:`layered_apply`."""
    return lp_norm(layered_apply(kernel, ball, f), p)


def full_ball_transference_check(kernel, ball, f, p):
    """The earlier form of ``engine.transference_check``: the Horner walk on the whole ball.

    Every down-sum and gather runs over all of the ball's vertices, and
    both norms take the modulus of every entry.
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
    with np.errstate(over="ignore", invalid="ignore"):
        f_norm = lp_norm(f, p)
        if not math.isfinite(f_norm):
            raise DomainError(
                f"||f||_p is {f_norm}: f has a non-finite entry or overflows float64"
            )
        down = [f]  # down[b] = C^b f
        for _ in range((D - 1) // 2):
            down.append(ball.down_sum(down[-1]))
        u = np.zeros(ball.size, dtype=complex)
        for a in range(D, 0, -1):
            # P^a's coefficient: k(a + b) C^b f, less k(a + b + 2) C^b f, the
            # walk a + 1 up and b + 1 down that backtracks
            for b in range(min(a - 1, D - a) + 1):
                u += kv[a + b] * down[b]
            for b in range(min(a, D - a - 1)):
                u -= kv[a + b + 2] * down[b]
            u = ball.up_gather(u)
        lhs = lp_norm(u, p)
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


def power_sum_norm(x, p):
    """The earlier form of ``zline.lp_norm``: every entry through ``pow``, zeros included."""
    x = np.abs(np.asarray(x))
    if math.isinf(p):
        return float(x.max()) if x.size else 0.0
    return float((x**p).sum() ** (1.0 / p))


def _phase_power(y, expo):
    mag = np.abs(y)
    out = np.zeros_like(y, dtype=complex)
    nz = mag > 0.0
    out[nz] = (y[nz] / mag[nz]) * mag[nz] ** expo
    return out


def ball_opnorm_lower(ball, kernel, p, seed=0, iters=200):
    """Compression lower bound on an explicit ball, vertex by vertex.

    The explicit-ball form of ``tree.opnorm_lower``: the same trials
    (``delta``, ``ball[window]``, ``matched-row``, the ``power[k]``
    duality ascent, run once per parity block of spheres for a one-parity
    kernel) plus trials the compression does not run, the ball indicators
    at the dyadic radii below the window (``ball[r]``) and eight seeded
    non-radial sign vectors, every convolution
    run over all ``O(q^R)`` vertices by ``TreeBall.convolve`` (itself
    checked against :func:`dense_convolve`) rather than on the radial
    quotient.  Returns ``(bound, method)``.
    """
    kv = kernel.values
    D = kernel.radius
    window = ball.radius - D
    if window < 0:
        raise ValueError("no support window")
    nw = int(ball.level_start[window + 1])
    n = ball.size
    best, best_name = 0.0, "none"

    def consider(fw, name):
        nonlocal best, best_name
        denom = power_sum_norm(fw, p)
        if denom == 0.0:
            return
        f = np.zeros(n, dtype=complex)
        f[: fw.size] = fw
        ratio = power_sum_norm(ball.convolve(kernel, f), p) / denom
        if ratio > best:
            best, best_name = ratio, name

    consider(np.ones(1, dtype=complex), "delta")
    radii = []
    r = 1
    while r < window:
        radii.append(r)
        r *= 2
    if window >= 1:
        radii.append(window)
    for r in radii:
        consider(np.ones(int(ball.level_start[r + 1]), dtype=complex), f"ball[{r}]")

    row = kv[ball.depth[: int(ball.level_start[min(D, window) + 1])]]
    prof = np.abs(row)
    nz = prof > 0.0
    matched = np.zeros(prof.size, dtype=complex)
    expo = 1.0 / (p - 1.0) if 1.0 < p < math.inf else 0.0
    matched[nz] = np.conj(row[nz]) / prof[nz] * prof[nz] ** expo
    consider(matched, "matched-row")

    rng = np.random.default_rng(seed)
    for rep in range(8):
        consider(rng.integers(0, 2, size=nw) * 2.0 - 1.0, f"sign[#{rep}]")

    if 1.0 < p < math.inf:
        pd = p / (p - 1.0)
        conj_kernel = type(kernel)(kernel.params, np.conj(kv))
        window_mask = np.arange(n) < nw
        masks = [window_mask]
        if D >= 1 and not np.any(kv[(D + 1) % 2 :: 2]):
            # one-parity kernel: one ascent from the even spheres, one from the odd
            masks = [window_mask & (ball.depth % 2 == b) for b in (0, 1)]
        for mask in masks:
            x = mask.astype(complex)
            prev = -1.0
            for it in range(iters):
                nx = power_sum_norm(x, p)
                if nx == 0.0:
                    break
                x /= nx
                y = ball.convolve(kernel, x)
                est = power_sum_norm(y, p)
                if est > best:
                    best, best_name = est, f"power[{it + 1}]"
                if prev >= 0.0 and abs(est - prev) <= 1e-10 * max(est, 1e-300):
                    break
                prev = est
                z = ball.convolve(conj_kernel, _phase_power(y, p - 1.0))
                x = np.zeros(n, dtype=complex)
                x[:nw] = _phase_power(z[:nw], pd - 1.0)
    return best, best_name


def negative_half_opnorm_lower(ball, kernel, p, seed=0, iters=40):
    """Duality ascent for the negative-height half over all vertex functions of a ball.

    Maximizes ``||T f||_p / ||f||_p`` for ``T`` of :func:`layered_apply`
    over complex ``f`` on the interior window ``B_{R-D}``, from the ones
    vector and from a seeded complex start.  Every value is an attained
    ratio, so the best is a lower bound for the norm of ``T`` on the
    window, which the shell series bounds from above.  ``p`` in ``(1, 2)``.
    """
    window = ball.radius - kernel.radius
    nw = int(ball.level_start[window + 1])
    pd = p / (p - 1.0)
    conj_kernel = type(kernel)(kernel.params, np.conj(kernel.values))
    rng = np.random.default_rng(seed)
    best = 0.0
    for start in (np.ones(nw), rng.normal(size=nw) + 1j * rng.normal(size=nw)):
        x = np.zeros(ball.size, dtype=complex)
        x[:nw] = start
        for _ in range(iters):
            x /= power_sum_norm(x, p)
            y = layered_apply(kernel, ball, x)
            best = max(best, power_sum_norm(y, p))
            z = layered_apply(conj_kernel, ball, _phase_power(y, p - 1.0), above=False)
            x = np.zeros(ball.size, dtype=complex)
            x[:nw] = _phase_power(z[:nw], pd - 1.0)
            if not np.any(x):
                break
    return best


def scaled(g, q, p):
    """The earlier form of ``tree._scale_rows``, for one trial: ``g`` in scaled coordinates.

    Each entry is multiplied by ``q^{(max(d, 1) - max(g.size - 1, 1)) / p}``,
    the scale of its sphere divided by the outer sphere's.
    """
    d = np.arange(g.size)
    return g * float(q) ** ((np.maximum(d, 1) - max(g.size - 1, 1)) / p)


def _oracle_radial_norm(h, q, p):
    """``l^p`` norm on the tree of the radial function with scaled sphere values ``h``."""
    mag = np.abs(h)
    return float((mag[0] ** p + (q + 1) * np.sum(mag[1:] ** p)) ** (1.0 / p))


def recurrence_opnorm_lower(kernel, p, radius):
    """The radial-quotient compression with one sphere-sum recurrence per product.

    The earlier form of ``tree.opnorm_lower``, for ``1 < p < inf``: the
    same trials, run in the same order and evaluated one at a time, but
    every convolution (each trial, and both products of each ascent
    iterate) is the recurrence ``tree._radial_convolve`` on ``radius + 1``
    zero-padded sphere values instead of a product with a prebuilt band.  The ascent is its own
    loop, the earlier form of ``zline.duality_ascent``: normalise, apply,
    take the norm, then :func:`masked_phase_power` twice, with every norm
    and phase map taking its own modulus.  Returns ``(bound, method)``.
    """
    p = check_exponent(p)
    q = kernel.params.q
    kv = kernel.values
    D = kernel.radius
    window = int(radius) - D
    if window < 0:
        raise ValueError("no support window")
    nw = window + 1
    best, best_name = 0.0, "none"

    def consider(ratio, name):
        nonlocal best, best_name
        if best < ratio < math.inf:
            best, best_name = ratio, name

    def padded(hw):
        h = np.zeros(int(radius) + 1, dtype=complex)
        h[: hw.size] = hw
        return h

    def norm(h):
        return _oracle_radial_norm(h, q, p)

    def trial(hw, name):
        denom = norm(hw)
        if denom != 0.0:
            consider(norm(_radial_convolve(kv, padded(hw), q, p)) / denom, name)

    with np.errstate(over="ignore", invalid="ignore"):
        trial(np.ones(1, dtype=complex), "delta")
        trial(scaled(np.ones(nw, dtype=complex), q, p), f"ball[{window}]")
        matched = masked_phase_power(np.conj(kv[: min(D, window) + 1]), 1.0 / (p - 1.0))
        trial(scaled(matched, q, p), "matched-row")

        pd = dual_exponent(p)
        conj_kv = np.conj(kv)
        start = scaled(np.ones(nw, dtype=complex), q, p)
        starts = [start]
        if D >= 1 and not np.any(kv[(D + 1) % 2 :: 2]):
            starts = [start * (np.arange(nw) % 2 == b) for b in (0, 1)]
        for x0 in starts:
            x, prev = padded(x0), -1.0
            for k in range(1, _TREE_POWER_ITERATES + 1):
                nx = norm(x)
                if nx == 0.0:
                    break
                x = x / nx
                y = _radial_convolve(kv, x, q, p)
                est = norm(y)
                if not math.isfinite(est):
                    break
                consider(est, f"power[{k}]")
                if prev >= 0.0 and abs(est - prev) <= 1e-10 * max(est, 1e-300):
                    break
                prev = est
                w = _radial_convolve(conj_kv, masked_phase_power(y, p - 1.0), q, pd)
                x = masked_phase_power(padded(w[:nw]), pd - 1.0)
    return best, best_name


def masked_phase_power(y, expo):
    """The earlier form of ``zline.phase_power``: every entry through the zero and subnormal masks."""
    mag = np.abs(y)
    out = np.zeros_like(y, dtype=complex)
    nz = mag > 0.0
    num, den = y[nz], mag[nz]
    power = den**expo
    small = den < 2.0**-1022
    if small.any():
        num[small] *= 2.0**600
        den[small] = np.abs(num[small])
    out[nz] = (num / den) * power
    return out


def cosine_matrix_transform(kernel, z):
    """The earlier form of ``spherical_transform_at``: all ``2J + 1`` cosine columns.

    No overflow check: a transform that leaves float64 comes back
    non-finite.
    """
    seq = abel_forward(kernel)
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.cos(np.outer(z.ravel(), seq.indices) * kernel.params.log_q) @ seq.values
    return out.reshape(z.shape)


def uncached_grid_transform(kernel, n):
    """The earlier form of ``spherical_transform``: the grid's cosine table built per call.

    Returns the samples; an overflow raises :class:`DomainError`.
    """
    seq = abel_forward(kernel)
    z = np.asarray(torus_grid(kernel.params, n))
    z = z.astype(complex if z.dtype.kind == "c" else float, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.cos(np.outer(z.ravel(), seq.indices[kernel.radius :]) * kernel.params.log_q)
        out = np.concatenate([half[:, :0:-1], half], axis=1) @ seq.values
    if not np.isfinite(out).all():
        raise DomainError(
            "the spherical transform overflows float64: the kernel values or |Im z| are too large"
        )
    return out.reshape(z.shape)


def uncached_inverse_transform(symbol, radius):
    """The earlier form of ``inverse_spherical_transform``: ``1/c(-s)`` evaluated per call."""
    params = symbol.params
    d = np.arange(int(radius) + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = symbol.samples * c_inverse(params, -symbol.grid)
        vals = 2.0 * params.plancherel_const * params.period * inverse_fourier_z(weights, d)
        vals *= params.qpow(-d.astype(float) / 2.0)
    return vals


def census_counter(q, radius):
    """Census rows ``(height, depth, merge, count)`` counted vertex by vertex."""
    neighbors, parent, depth = adjacency_ball(q, radius)
    merge, height = ray_heights(neighbors, parent, depth, radius)
    counts = {}
    for i in range(len(parent)):
        key = (height[i], depth[i], merge[i])
        counts[key] = counts.get(key, 0) + 1
    rows = sorted((h, d, m, c) for (h, d, m), c in counts.items())
    return rows


def loop_abel_coefficients(kernel):
    """The half ``a_0 .. a_D`` of the Abel transform, one index and one term at a time.

    For each index ``t`` the terms ``(q - 1) q^{i-1} k(t + 2i)`` are added
    to ``k(t)`` in the order of ``i``, each weight the previous one times
    ``q``; the sum is then scaled by ``q^{t/2}``.  Returns ``None`` where a
    coefficient overflows float64.
    """
    q = kernel.params.q
    D = kernel.radius
    kv = kernel.values
    reduced = np.empty(D + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(D + 1):
            acc = kv[t]
            weight = 1.0
            for i in range(1, (D - t) // 2 + 1):
                weight = weight * q if i > 1 else (q - 1.0)
                acc += weight * kv[t + 2 * i]
            reduced[t] = acc
        half = reduced * kernel.params.qpow(np.arange(D + 1) / 2.0)
    return half if np.isfinite(half).all() else None


# ---------------------------------------------------------------------------
# Exact horocyclic sums (Fraction arithmetic)
# ---------------------------------------------------------------------------

def fraction_slice_sum(q, kernel_values, j):
    """Exact horocyclic integral of a radial kernel over the height-``j`` set.

    Works cell by cell rather than shell by shell: the ray cell at height
    ``j >= 0`` carries the telescoped mass ``q^j``, the single cell hanging
    below the base vertex (``m = 0``, ``j < 0``) carries mass 1, and every
    intermediate cell at merge depth ``m`` carries ``(q-1) q^{m-1}``.
    Exact Fraction arithmetic throughout.
    """
    D = len(kernel_values) - 1
    total = Fraction(0)
    if 0 <= j <= D:
        total += Fraction(q) ** j * Fraction(kernel_values[j])
    if j < 0 and -j <= D:
        total += Fraction(kernel_values[-j])
    for m in range(max(j, 0) + 1, (D + j) // 2 + 1):
        if m == 0:
            continue
        d = 2 * m - j
        if d <= D:
            total += Fraction(q - 1) * Fraction(q) ** (m - 1) * Fraction(kernel_values[d])
    return total


# ---------------------------------------------------------------------------
# High-precision spectral oracles (mpmath)
# ---------------------------------------------------------------------------

def mp_c_function(q, z, dps=40):
    """c-function evaluated in ``dps``-digit arithmetic straight from its w-form."""
    with mp.workdps(dps):
        w = mp.exp(1j * mp.mpmathify(z) * mp.log(q))
        rq = mp.sqrt(q)
        val = (rq / (q + 1)) * (rq * w - (1 / rq) / w) / (w - 1 / w)
        return complex(val)


def mp_line_sup(q, v, dps=50):
    """Sup over real ``s`` of ``|1/c(-s - i v)|`` in ``dps``-digit arithmetic.

    On the line, ``|1/c|`` depends on ``s`` only through ``cos(2 s log q)``
    and monotonically so, hence the sup is the larger of the values at
    ``s = 0`` and ``s = tau/4``; each is taken straight from the w-form.
    """
    with mp.workdps(dps):
        lq = mp.log(q)
        rq = mp.sqrt(q)
        v = mp.mpf(v)

        def modulus(s):
            w = mp.exp(1j * (-s - 1j * v) * lq)
            return abs(((q + 1) / rq) * (w - 1 / w) / (rq * w - (1 / rq) / w))

        return max(modulus(mp.mpf(0)), modulus(mp.pi / (2 * lq)))


def recurrence_spherical(q, z, dmax):
    """Spherical function values ``phi_z(0..dmax)`` from the eigenfunction recurrence.

    Uses only ``phi(0) = 1``, ``phi(1) = gamma(z)`` and the radial
    three-term recurrence ``q phi(d+1) = (q+1) gamma phi(d) - phi(d-1)``
    of the nearest-neighbour averaging operator; no c-function expansion.
    """
    with mp.workdps(50):
        zz = mp.mpmathify(z)
        w = mp.exp(1j * zz * mp.log(q))
        gamma = (mp.sqrt(q) / (q + 1)) * (w + 1 / w)
        phi = [mp.mpc(1), gamma]
        for d in range(1, dmax):
            phi.append(((q + 1) * gamma * phi[d] - phi[d - 1]) / q)
        return [complex(v) for v in phi[: dmax + 1]]


def mp_moment(q, p, ell, dps=40):
    """Horocyclic moment sum evaluated term by term in high precision."""
    with mp.workdps(dps):
        x = mp.power(q, 1 - mp.mpf(2) / p)
        total = mp.mpf(0) if ell > 0 else mp.mpf(1)
        m = 1
        while True:
            # mu_m q^{-2m/p} = (q-1) q^{m-1} q^{-2m/p} = ((q-1)/q) x^m
            term = (2 * m) ** ell * (q - 1) / q * mp.power(x, m)
            total += term
            if term < mp.mpf(10) ** (-(dps - 5)) * max(total, 1):
                break
            m += 1
            if m > 200000:
                raise RuntimeError("moment oracle failed to converge")
        return float(total)


def grid_line_sup(q, v, n=1 << 14):
    """Dense-grid maximum of the reciprocal c-function on the line ``Im z = -v``."""
    log_q = math.log(q)
    tau = 2.0 * math.pi / log_q
    s = -tau / 2.0 + tau * np.arange(n) / n
    z = -s - 1j * v
    rq = math.sqrt(q)
    w = np.exp(1j * z * log_q)
    vals = ((q + 1) / rq) * (w - 1.0 / w) / (rq * w - (1.0 / rq) / w)
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# Line sup of a symbol on the integers, one local maximum at a time
# ---------------------------------------------------------------------------

def _fft_symbol(q, offset, coeffs, n):
    """``sum_d coeffs_d q^{-i d s}`` on the ``n``-point torus grid, by one FFT.

    On the grid ``s_j = -tau/2 + tau j/n`` the phase is ``(-1)^d
    exp(-2 pi i d j / n)``, so folding the coefficients modulo ``n`` turns
    the symbol into a discrete Fourier transform.
    """
    d = offset + np.arange(coeffs.size)
    folded = np.zeros(n, dtype=complex)
    np.add.at(folded, d % n, coeffs * np.where(d % 2 == 0, 1.0, -1.0))
    return np.fft.fft(folded)


def scalar_line_sup(q, offset, values, v):
    """Sup of the symbol's modulus on ``Im z = v``, refining each grid maximum in turn.

    The grid rule and the two clamped Newton steps per local maximum are
    the per-point loop the package ran before it refined every maximum in
    one array pass.  Returns ``(value, n)``.
    """
    log_q = math.log(q)
    tau = 2.0 * math.pi / log_q
    values = np.asarray(values, dtype=complex)
    span = max(abs(offset), abs(offset + values.size - 1), 1)
    n = min(max(1024, 4 * (1 << (span - 1).bit_length())), 1 << 14)
    dvals = (offset + np.arange(values.size)).astype(float)
    coeffs = values * np.exp(dvals * v * log_q)
    grid = -tau / 2.0 + tau * np.arange(n) / n
    mag = np.abs(_fft_symbol(q, offset, coeffs, n))
    best = float(mag.max())
    left = np.roll(mag, 1)
    right = np.roll(mag, -1)
    locs = np.flatnonzero((mag >= left) & (mag >= right))
    h = tau / n
    for i in locs:
        s = grid[i]
        for _ in range(2):
            s = _newton_step(coeffs, dvals, s, log_q, h)
        val = float(abs(np.sum(coeffs * np.exp(-1j * dvals * (s * log_q)))))
        if val > best:
            best = val
    return best, n


def unpruned_line_sup(F, v):
    """Line sup of ``|FT F|`` on ``Im z = v`` that refines every grid maximum.

    The package's array pass before it dropped the maxima that cannot win:
    all local maxima of the FFT grid take two clamped Newton steps through
    phase matrices.  Returns ``(value, n)``.
    """
    span = max(abs(F.offset), abs(F.offset + F.values.size - 1), 1)
    n = min(max(1024, 4 << (span - 1).bit_length()), 1 << 14)
    log_q = F.params.log_q
    d = F.indices
    coeffs = F.values * F.params.qpow(d * v)
    mag = np.abs(_grid_symbol(coeffs, d, n))
    best = float(mag.max())
    d = d.astype(float)
    grid = torus_grid(F.params, n)
    s = grid[(mag >= np.roll(mag, 1)) & (mag >= np.roll(mag, -1))]
    w = -1j * log_q * d
    derivs = np.stack([coeffs, coeffs * w, coeffs * w**2], axis=1)
    derivs *= math.ldexp(1.0, -max(math.frexp(best)[1], 0))
    h = F.params.period / n
    for _ in range(2):
        m, m1, m2 = _eval_symbol(derivs, d, s, log_q).T
        g1 = 2.0 * (m1 * np.conj(m)).real
        g2 = 2.0 * (np.abs(m1) ** 2 + (m2 * np.conj(m)).real)
        move = (g2 < 0.0) & np.isfinite(g2)
        s[move] += np.clip(-g1[move] / g2[move], -h, h)
    refined = np.abs(_eval_symbol(coeffs, d, s, log_q))
    return float(refined[refined > best].max(initial=best)), n


def angle_three_term_sup(F):
    """The package's earlier form of the three-term line sup, for ``F`` with ``a c != 0``.

    The same quartic, its roots' angles taken by ``np.angle`` and the moduli
    at them by one :func:`~treeharmonics.zline._eval_symbol` call.
    """
    a, b, c = F.values.tolist()
    scale = math.ldexp(1.0, -max(math.frexp(max(abs(a), abs(b), abs(c)))[1], -1021))
    a, b, c = a * scale, b * scale, c * scale
    u = a * b.conjugate() + b * c.conjugate()
    v = a * c.conjugate()
    if abs(v) > 2.0**-32 * abs(u):
        companion = np.eye(4, k=-1, dtype=complex)
        companion[0] = (-u / (2.0 * v), 0.0, u.conjugate() / (2.0 * v), v.conjugate() / v)
        phi = np.angle(np.linalg.eigvals(companion))
    else:
        phi = np.array([-cmath.phase(u)])
    log_q = F.params.log_q
    return float(np.abs(_eval_symbol(F.values, F.indices.astype(float), phi / log_q, log_q)).max())


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


def dense_grid_symbol(q, d, coeffs, n):
    """``sum_d coeffs_d q^{-i d s}`` on the ``n``-point torus grid, one phase per entry."""
    log_q = math.log(q)
    tau = 2.0 * math.pi / log_q
    s = -tau / 2.0 + tau * np.arange(n) / n
    return np.exp(-1j * log_q * np.multiply.outer(s, np.asarray(d, dtype=float))) @ coeffs


def dense_inverse_sum(q, samples, d):
    """Periodic trapezoid sum ``(1/n) sum_j samples_j q^{i d s_j}``, one phase per entry."""
    log_q = math.log(q)
    tau = 2.0 * math.pi / log_q
    n = samples.size
    s = -tau / 2.0 + tau * np.arange(n) / n
    return np.exp(1j * log_q * np.multiply.outer(np.asarray(d, dtype=float), s)) @ samples / n


def fine_grid_line_sup(q, offset, values, v, n=1 << 16):
    """Unrefined maximum of the symbol's modulus on ``Im z = v`` over an ``n``-point grid."""
    values = np.asarray(values, dtype=complex)
    d = offset + np.arange(values.size)
    coeffs = values * np.exp(d * v * math.log(q))
    return float(np.abs(_fft_symbol(q, offset, coeffs, n)).max())


def mp_trig_sup(values, dps=50, n=128):
    """Sup over real ``phi`` of ``|sum_j values_j e^{-i j phi}|`` in ``dps``-digit arithmetic.

    The sup of a symbol on the real line, with ``phi = s log q``; neither
    ``q`` nor the offset changes it.  Each local maximum of an ``n``-point
    grid brackets, one grid step to either side, a sign change of the
    derivative of the squared modulus, which ``4 dps`` bisections close.
    No root finder is involved, so a degenerate maximum, where that
    derivative has a multiple root, converges as fast as any other.
    """
    with mp.workdps(dps):
        c = [mp.mpc(complex(x)) for x in values]

        def symbol(phi, k=0):  # the k-th derivative in phi
            return mp.fsum(cj * mp.mpc(0, -j) ** k * mp.expj(-j * phi) for j, cj in enumerate(c))

        def slope(phi):
            return 2 * mp.re(symbol(phi, 1) * mp.conj(symbol(phi)))

        step = 2 * mp.pi / n
        grid = [i * step for i in range(n)]
        mags = [abs(symbol(phi)) for phi in grid]
        best = max(mags)
        for i in range(n):
            if mags[i] < mags[i - 1] or mags[i] < mags[(i + 1) % n]:
                continue
            lo, hi = grid[i] - step, grid[i] + step
            if not slope(lo) > 0 > slope(hi):
                continue
            for _ in range(4 * dps):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
            best = max(best, abs(symbol(lo)))
        return float(best)


# ---------------------------------------------------------------------------
# The symbol interval's trial dictionary, one explicit vector at a time
# ---------------------------------------------------------------------------

def direct_dictionary_ratios(values, p):
    """The trials of the ``dict-v6`` dictionary, and dense boxes, with their exact ratios.

    ``dict-v6`` runs the delta, the ascent and the line sup on kernels
    that change sign or are complex and have more than two nonzero
    entries, and takes the others to their exact ``l^1`` norm.  The boxes
    of lengths ``2^1 .. 2^12`` were trials up to ``dict-v5``; they stay
    here as a reference that no box ratio beats the lower end.

    Builds each trial vector explicitly — the delta, the boxes, named
    ``box[<length>]``, and the duality-map ascent from the constant vector
    on a window of ``min(1024, 4 max(m, 16))`` entries, 50 iterates at
    most — and takes ``||f * values||_p / ||f||_p`` by dense
    ``np.convolve``.  The ascent is one entry ``power[<iterates run>]``
    holding its best ratio.  Returns a list of ``(name, ratio)`` pairs in
    that order.
    """
    values = np.asarray(values, dtype=complex)
    trials = [("delta", np.ones(1, dtype=complex))]
    trials += [(f"box[{L}]", np.ones(L, dtype=complex)) for L in (2**e for e in range(1, 13))]
    out = [
        (name, power_sum_norm(np.convolve(f, values), p) / power_sum_norm(f, p))
        for name, f in trials
    ]

    window = min(1024, 4 * max(values.size, 16))
    lag = values.size - 1
    rev = np.conj(values[::-1])
    pd = p / (p - 1.0)
    x = np.ones(window, dtype=complex)
    best, used, prev = 0.0, 0, -1.0
    for it in range(1, 51):
        nx = power_sum_norm(x, p)
        if nx == 0.0:
            break
        x = x / nx
        y = np.convolve(x, values)
        est = power_sum_norm(y, p)
        if not math.isfinite(est):
            break
        best, used = max(best, est), it
        if prev >= 0.0 and abs(est - prev) <= 1e-10 * max(est, 1e-300):
            break
        prev = est
        back = np.convolve(_phase_power(y, p - 1.0), rev)[lag : lag + window]
        x = _phase_power(back, pd - 1.0)
    out.append((f"power[{used}]", best))
    return out


# ---------------------------------------------------------------------------
# The line profile by an inverse trapezoid sum
# ---------------------------------------------------------------------------

#: Trapezoid grid bounds of :func:`trapezoid_line_profile`; at the cap one q=2 profile
#: takes about 0.6 s and 128 MB (2-core x86, numpy 2.4).
_MIN_GRID, _MAX_GRID = 512, 1 << 20


def _profile_grid(kernel, p):
    """Half-width ``L`` and trapezoid grid size ``n`` of :func:`trapezoid_line_profile`."""
    L = kernel.radius + math.ceil(40.0 / (2.0 * strip_halfwidth(p) * kernel.params.log_q))
    n = max(_MIN_GRID, 1 << (2 * L + 1).bit_length())
    if n > _MAX_GRID:
        raise DomainError(f"p={p:g} is too close to 2: the line profile needs {n} > 2^20 points")
    return L, n


def trapezoid_line_profile(kernel, p):
    """The line profile as the package computed it before its closed form.

    The shifted symbol times the regularized reciprocal c-function on the
    shifted line, inverted by an ``n``-point trapezoid sum on ``[-L, L]``.
    ``L`` assumes a tail decay of ``q^{2 delta(p) l}``, slower than the
    true ``q^{(1/2 + delta(p)) l}``, so the grid grows without bound as
    ``p -> 2`` and is refused past ``2^20`` points (from ``p = 1.9999``
    at ``q = 2``).  Shares no arithmetic with the closed form but the
    Abel coefficients.
    """
    params = kernel.params
    p = check_exponent(p)
    if p >= 2.0:
        raise DomainError(
            f"profile is defined for p in [1, 2), got p={p:g}; "
            "handle p > 2 by duality before calling"
        )
    delta = strip_halfwidth(p)
    L, n = _profile_grid(kernel, p)
    shifted = abel_forward(kernel).shifted(delta)
    s = torus_grid(params, n)
    with np.errstate(over="ignore", invalid="ignore"):
        g = fourier_z(shifted, s) * c_inverse_shifted(params, s, delta)
        ell = np.arange(-L, L + 1)
        vals = 2.0 * params.plancherel_const * params.period * inverse_fourier_z(g, ell)
    if not np.isfinite(vals).all():
        raise DomainError("the line profile overflows float64: the kernel values are too large")
    return ZKernel(params, -L, vals)


# ---------------------------------------------------------------------------
# The affine step 1 of the height split
# ---------------------------------------------------------------------------

def c_inverse_line_sup(params, v):
    """Exact sup of ``|c_inverse_shifted(s, v)|`` over real ``s``.

    On the line the modulus squared is ``((q+1)^2/q) (A - c)/(B - c)``
    with ``A = q^{2v} + q^{-2v}``, ``B = q^{1+2v} + q^{-1-2v}`` and
    ``c = 2 cos(2 s log q)`` sweeping ``[-2, 2]``; the ratio is monotone in
    ``c`` with direction given by the sign of ``A - B``, so the sup is
    attained at an endpoint.  With ``a = v log q`` and ``b = (1/2 + v) log q``
    the endpoint values factor exactly as ``A + 2 = 4 cosh(a)^2``,
    ``A - 2 = 4 sinh(a)^2`` and likewise for ``B`` with ``b``, so the sup is
    ``(q+1)/sqrt(q)`` times ``cosh(a)/cosh(b)`` when ``|a| <= |b|`` and
    ``|sinh(a)/sinh(b)|`` otherwise.  This form has no cancellation, also
    next to the pole guard where ``B - 2`` would round away.  At ``v = 0``
    it recovers the value ``2 = 1/c(tau/4)``.
    """
    params = tree_params(params)
    v = float(v)
    if not (-0.5 + POLE_GUARD <= v <= 0.5):
        raise DomainError(
            f"contour shift must lie in (-1/2, 1/2], safely above -1/2; got {v}"
        )
    q = params.q
    a = v * params.log_q
    b = (0.5 + v) * params.log_q
    ratio = math.cosh(a) / math.cosh(b) if abs(a) <= abs(b) else abs(math.sinh(a) / math.sinh(b))
    return (q + 1.0) / math.sqrt(q) * ratio


def profile_strip_constant(kernel, p):
    """Certified sup of the line profile's symbol over the analysis strip.

    The profile's symbol is ``2 c_G tau`` times the shifted symbol times
    the regularized reciprocal c-function, analytic between the boundary
    lines ``Im z = +-delta(p)`` of the original variable.  Its sup over
    the strip is bounded — exactly, with no grid — by the coefficient
    ``l1`` of the shifted Abel coefficients times the closed-form line sup
    :func:`c_inverse_line_sup`, maximized over the two boundary lines.
    Every coefficient of the profile obeys ``|phi(l)| <= H`` and the
    negative tail ``|phi(l)| <= H q^{2 delta l}`` with this constant ``H``.
    """
    p = check_exponent(p)
    if p >= 2.0:
        raise DomainError(f"strip constant is defined for p in [1, 2), got p={p:g}")
    params = kernel.params
    delta = strip_halfwidth(p)
    # magnitudes first, |a_j| q^{j delta}: the rounding order of the stated bound
    seq = abel_forward(kernel)
    coeff_l1 = ZKernel(params, seq.offset, np.abs(seq.values)).shifted(delta).l1()
    line_sup = max(c_inverse_line_sup(params, delta), c_inverse_line_sup(params, -delta))
    return 2.0 * params.plancherel_const * params.period * coeff_l1 * line_sup


def row_loop_negative_height_bound(kernel, p):
    """Step 1 of the height split row by row, every row through ``convolutor_upper``.

    The package's earlier loop: row 0, ``q^{u/p} k(u)`` for ``1 <= u <=
    D``, is scaled once, and each suffix row ``m`` is built as a checked
    :class:`~treeharmonics.zline.ZKernel` and bounded by
    :func:`~treeharmonics.zline.convolutor_upper`, which sums its moduli
    itself.  A row that overflows float64 makes the series infinite.
    ``p`` in ``[1, 2)``.
    """
    p = check_exponent(p)
    params = kernel.params
    D = kernel.radius
    if D == 0:
        return 0.0
    top = 2 * ((D - 1) // 2)
    series = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        powers = params.qpow(np.arange(-top, D + 1) / p)
        weights = (shell_masses(params, top // 2) * powers[top::-2]).tolist()
        row0 = kernel.values[1:] * powers[top + 1 :]
        if not np.isfinite(row0).all():
            return math.inf
        for m, weight in enumerate(weights):
            try:
                row_norm, _ = convolutor_upper(ZKernel(params, 2 * m + 1, row0[2 * m :]), p)
            except DomainError:
                return math.inf  # the row's l1 norm overflows
            series += weight * row_norm
    return series


def affine_negative_height_bound(kernel, p):
    """The shell series with every truncation bounded by the affine estimate.

    Shell ``m`` contributes ``mu_m q^{-2m/p}`` times a bound for the
    profile truncated to ``[2m+1, oo)``: ``U + (1/(q^{2 delta} - 1) + 2m +
    1) H`` with ``U`` the full profile's convolutor bound and ``H``
    :func:`profile_strip_constant`.  The estimate holds for multipliers of
    infinite support too; since it is affine in ``m``, the series over all
    shells collapses to a geometric closed form.  ``p`` in ``(1, 2)``.
    """
    p = check_exponent(p)
    if not 1.0 < p < 2.0:
        raise DomainError(f"negative-height bound requires p in (1, 2), got p={p:g}")
    if kernel.radius == 0:
        return 0.0
    q = kernel.params.q
    eps = 2.0 * strip_halfwidth(p)
    upper, _ = convolutor_upper(line_profile(kernel, p), p)
    strip_sup = profile_strip_constant(kernel, p)
    alpha = upper + (1.0 / (q ** eps - 1.0) + 1.0) * strip_sup
    x = q ** (1.0 - 2.0 / p)
    return alpha + (1.0 - 1.0 / q) * (
        alpha * x / (1.0 - x) + 2.0 * strip_sup * x / (1.0 - x) ** 2
    )


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
    kernel: object
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
