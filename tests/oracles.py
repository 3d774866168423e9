"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: explicit adjacency lists, per-source
breadth-first searches, dense O(n^2) convolution, high-precision mpmath
evaluations, and exact Fraction cell sums.  None of it shares code paths
with the package, so agreement is evidence rather than tautology; the one
exception, :func:`ball_opnorm_lower`, runs on the package's explicit ball
(checked here against the dense oracles) to check the radial quotient.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np


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


def _lp_norm(x, p):
    x = np.abs(np.asarray(x))
    if math.isinf(p):
        return float(x.max()) if x.size else 0.0
    return float(np.sum(x ** p) ** (1.0 / p))


def _phase_power(y, expo):
    mag = np.abs(y)
    out = np.zeros_like(y, dtype=complex)
    nz = mag > 0.0
    out[nz] = (y[nz] / mag[nz]) * mag[nz] ** expo
    return out


def ball_opnorm_lower(ball, kernel, p, seed=0, iters=200):
    """Compression lower bound on an explicit ball, vertex by vertex.

    The explicit-ball form of ``tree.opnorm_lower``: the same trials
    (``delta``, ``ball[r]``, ``matched-row``, the ``power[k]`` duality
    ascent) plus eight seeded non-radial sign vectors, every convolution
    run over all ``O(q^R)`` vertices by ``TreeBall.convolve`` (itself
    checked against :func:`dense_convolve`) rather than on the radial
    quotient.  Returns ``(bound, method)``.
    """
    kernel = kernel.trimmed()
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
        denom = _lp_norm(fw, p)
        if denom == 0.0:
            return
        f = np.zeros(n, dtype=complex)
        f[: fw.size] = fw
        ratio = _lp_norm(ball.convolve(kernel, f), p) / denom
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
        x = np.zeros(n, dtype=complex)
        x[:nw] = 1.0
        x /= _lp_norm(x[:nw], p)
        prev = -1.0
        for it in range(iters):
            y = ball.convolve(kernel, x)
            est = _lp_norm(y, p)
            if est > best:
                best, best_name = est, f"power[{it + 1}]"
            if prev >= 0.0 and abs(est - prev) <= 1e-10 * max(est, 1e-300):
                break
            prev = est
            z = ball.convolve(conj_kernel, _phase_power(y, p - 1.0))
            x = np.zeros(n, dtype=complex)
            x[:nw] = _phase_power(z[:nw], pd - 1.0)
            nx = _lp_norm(x[:nw], p)
            if nx == 0.0:
                break
            x /= nx
    return best, best_name


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


def fine_grid_line_sup(q, offset, values, v, n=1 << 16):
    """Unrefined maximum of the symbol's modulus on ``Im z = v`` over an ``n``-point grid."""
    values = np.asarray(values, dtype=complex)
    d = offset + np.arange(values.size)
    coeffs = values * np.exp(d * v * math.log(q))
    return float(np.abs(_fft_symbol(q, offset, coeffs, n)).max())
