"""Finite balls of a homogeneous tree: geometry, census, convolution.

Vertices of the closed ball of radius ``R`` are indexed breadth-first
from the base vertex, so each sphere occupies a contiguous index block
and the children of every vertex occupy a contiguous block of the next
sphere.  A distinguished doubly infinite geodesic through the base vertex
(the first-child chain upward, the second-child-then-first-children chain
downward) induces horocyclic coordinates: each vertex carries a *merge
height* ``m`` (depth of its deepest ancestor on the upward ray) and a
*height* ``h = 2 m - depth``.  Distance to the base vertex is recovered
as ``depth = 2 m - h``, which is the larger of ``2 m - h`` and ``h``.

Radial convolution is performed through the sphere-sum three-term
recurrence driven by the nearest-neighbour sum, never through explicit
distance matrices; for inputs supported in the ball of radius ``R - D``
(``D`` the kernel radius) the truncation at the ball boundary is exact,
because every missing sphere sum vanishes identically.

The certified compression lower bound :func:`opnorm_lower` never builds a
ball.  Ball convolution maps radial functions to radial functions, so it
runs the same recurrence on the radial quotient: ``R + 1`` per-sphere
values, rescaled so that no sphere size is formed at any radius.  The
explicit :class:`TreeBall` (at most :data:`MAX_BALL_VERTICES` vertices)
serves the transference check and the tests; the census command uses the
closed form :func:`census_cells`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import DomainError, check_exponent, dual_exponent, tree_params
from .spherical import sphere_sizes
from .zline import duality_ascent, phase_power


@dataclass(frozen=True)
class TreeBall:
    """Closed ball of radius ``R`` in breadth-first vertex order.

    Arrays (all length ``size`` unless noted):

    - ``parent``: parent index, ``-1`` at the base vertex;
    - ``depth``: hop distance to the base vertex;
    - ``cstart``/``cend``: children of ``i`` are indices ``cstart[i]:cend[i]``;
    - ``merge``: depth of the deepest upward-ray ancestor;
    - ``height``: horocycle index ``2 * merge - depth``;
    - ``level_start``: length ``R + 2``, sphere ``d`` is
      ``level_start[d]:level_start[d + 1]``;
    - ``ray_up``/``ray_down``: indices of the reference geodesic at times
      ``0 .. R`` and ``0 .. -R``.
    """

    params: object
    radius: int
    level_start: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    cstart: np.ndarray
    cend: np.ndarray
    merge: np.ndarray
    height: np.ndarray
    ray_up: np.ndarray
    ray_down: np.ndarray

    @property
    def size(self):
        return int(self.level_start[-1])

    def sphere_slice(self, d):
        """Index slice of the sphere of radius ``d``."""
        d = int(d)
        if not 0 <= d <= self.radius:
            raise DomainError(f"sphere radius {d} outside ball of radius {self.radius}")
        return slice(int(self.level_start[d]), int(self.level_start[d + 1]))

    def distance(self, i, j):
        """Hop distance between two vertices, by climbing to the common ancestor."""
        i, j = int(i), int(j)
        di, dj = int(self.depth[i]), int(self.depth[j])
        steps = 0
        while di > dj:
            i = int(self.parent[i])
            di -= 1
            steps += 1
        while dj > di:
            j = int(self.parent[j])
            dj -= 1
            steps += 1
        while i != j:
            i = int(self.parent[i])
            j = int(self.parent[j])
            steps += 2
        return steps

    def census(self):
        """Occupied ``(height, depth, merge, count)`` cells, sorted by height then depth.

        Counts every vertex of the ball by its horocyclic cell; complete
        cells agree with the closed-form :func:`census_cells`.
        """
        keys = self.height.astype(np.int64) * (2 * self.radius + 2) + self.merge
        uniq, counts = np.unique(keys, return_counts=True)
        h = uniq // (2 * self.radius + 2)
        m = uniq % (2 * self.radius + 2)
        rows = np.column_stack([h, 2 * m - h, m, counts])
        order = np.lexsort((rows[:, 1], rows[:, 0]))
        return rows[order]

    def adjacency_sum(self, f):
        """Sum of ``f`` over the neighbours of each vertex, within the ball.

        Exact nearest-neighbour sum except at the boundary sphere, whose
        outside children are treated as zero.
        """
        f = np.asarray(f)
        if f.shape != (self.size,):
            raise DomainError(f"expected a vector of length {self.size}, got {f.shape}")
        out = np.zeros(self.size, dtype=complex)
        out[1:] = f[self.parent[1:]]
        cs = np.concatenate([[0.0 + 0.0j], np.cumsum(f.astype(complex))])
        out += cs[self.cend] - cs[self.cstart]
        return out

    def convolve(self, kernel, f):
        """Radial convolution ``(k * f)(x) = sum_y k(dist(x, y)) f(y)`` on the ball.

        Uses the sphere-sum recurrence of :func:`_sphere_sum_convolve` with
        :meth:`adjacency_sum` as ``A``.  For ``f`` supported in the ball of
        radius ``radius - D`` the result is exact at every vertex, since
        all truncated contributions vanish.
        """
        if kernel.params.q != self.params.q:
            raise DomainError("kernel and ball live on trees of different degree")
        f = np.asarray(f, dtype=complex)
        if f.shape != (self.size,):
            raise DomainError(f"expected a vector of length {self.size}, got {f.shape}")
        return _sphere_sum_convolve(kernel.trimmed().values, f, self.adjacency_sum, self.params.q)


def _sphere_sum_convolve(kv, f, adjacency, q):
    """Radial convolution ``sum_d kv[d] s_d`` by the sphere-sum recurrence.

    ``s_0 = f``, ``s_1 = A f``, ``s_2 = A s_1 - (q + 1) f`` and
    ``s_{d+1} = A s_d - q s_{d-1}``, where ``A`` is ``adjacency``.
    """
    out = kv[0] * f
    if kv.size == 1:
        return out
    s_prev, s_cur = f, adjacency(f)
    out += kv[1] * s_cur
    for d in range(2, kv.size):
        back = (q + 1) if d == 2 else q
        s_prev, s_cur = s_cur, adjacency(s_cur) - back * s_prev
        out += kv[d] * s_cur
    return out


#: Largest explicit ball :func:`ball_geometry` builds, in vertices: six
#: 8-byte index arrays make that about 200 MB.  q=3, R=10 has about 118k.
MAX_BALL_VERTICES = 2**22


def ball_geometry(q, radius):
    """Build the breadth-first :class:`TreeBall` of the given radius.

    Balls of more than :data:`MAX_BALL_VERTICES` vertices are refused with
    :class:`~treeharmonics.params.DomainError` before anything is allocated.
    """
    params = tree_params(q)
    radius = int(radius)
    if radius < 0:
        raise DomainError(f"ball radius must be >= 0, got {radius}")
    q = params.q
    # q**radius alone exceeds the budget: refuse before sphere_sizes
    # allocates one entry per sphere of a huge radius
    if (
        radius * params.log_q > math.log(MAX_BALL_VERTICES)
        or sphere_sizes(params, radius).sum() > MAX_BALL_VERTICES
    ):
        raise DomainError(
            f"the ball of radius {radius} at q={q} has more than "
            f"{MAX_BALL_VERTICES} vertices, the explicit-ball budget"
        )
    counts = sphere_sizes(params, radius).astype(np.int64)
    level_start = np.concatenate([[0], np.cumsum(counts)])
    n = int(level_start[-1])

    parent = np.full(n, -1, dtype=np.int64)
    depth = np.repeat(np.arange(radius + 1), counts)
    for d in range(1, radius + 1):
        lo, hi = level_start[d], level_start[d + 1]
        if d == 1:
            parent[lo:hi] = 0
        else:
            parent[lo:hi] = level_start[d - 1] + np.arange(hi - lo) // q

    cstart = np.full(n, n, dtype=np.int64)
    cend = np.full(n, n, dtype=np.int64)
    for d in range(0, radius):
        lo, hi = level_start[d], level_start[d + 1]
        nxt = level_start[d + 1]
        width = (q + 1) if d == 0 else q
        cstart[lo:hi] = nxt + np.arange(hi - lo) * width
        cend[lo:hi] = cstart[lo:hi] + width

    merge = np.zeros(n, dtype=np.int64)
    for d in range(1, radius + 1):
        lo, hi = level_start[d], level_start[d + 1]
        merge[lo:hi] = merge[parent[lo:hi]]
        merge[lo] = d  # first child chain: the upward reference ray
    height = 2 * merge - depth

    ray_up = level_start[: radius + 1].copy()
    ray_down = np.zeros(radius + 1, dtype=np.int64)
    if radius >= 1:
        ray_down[1] = level_start[1] + 1  # second child of the base vertex
        for t in range(2, radius + 1):
            ray_down[t] = cstart[ray_down[t - 1]]

    return TreeBall(
        params=params,
        radius=radius,
        level_start=level_start,
        parent=parent,
        depth=depth,
        cstart=cstart,
        cend=cend,
        merge=merge,
        height=height,
        ray_up=ray_up,
        ray_down=ray_down,
    )


# ---------------------------------------------------------------------------
# Census and horocyclic masses
# ---------------------------------------------------------------------------

def census_cells(q, radius):
    """Closed-form census of the ball: rows ``(height, depth, merge, count)``.

    A horocyclic cell is a (height, merge) pair; its depth is
    ``2 * merge - height`` and its vertex count in the full tree is ``1``
    on the reference ray (``merge == height``), ``q^{|height|}`` for the
    cells hanging off the base vertex (``merge == 0 > height``), and
    ``(q - 1) q^{merge - height - 1}`` otherwise.  Exactly the cells with
    depth <= radius appear, each complete.  The largest count is ``q^radius``.
    """
    params = tree_params(q)
    q = params.q
    radius = int(radius)
    # q >= 2, so radius > 63 overflows; tested first to skip a huge power
    if not 0 <= radius <= 63 or q**radius >= 2**63:
        raise DomainError(f"census radius must be >= 0 with q^radius < 2^63 (int64), got {radius}")
    rows = []
    for m in range(0, radius + 1):
        j_lo = 2 * m - radius
        for j in range(j_lo, m + 1):
            d = 2 * m - j
            if m == j:
                count = 1
            elif m == 0:
                count = q ** (-j)
            else:
                count = (q - 1) * q ** (m - j - 1)
            rows.append((j, d, m, count))
    rows.sort(key=lambda r: (r[0], r[1]))
    return np.array(rows, dtype=np.int64)


def shell_masses(q, mmax):
    """Horocyclic shell masses ``mu_0 = 1`` and ``mu_m = q^m - q^{m-1}``.

    ``mu_m`` is the mass a single horocycle assigns to its merge-``m``
    slice; the masses telescope, ``sum_{m <= j} mu_m = q^j``.
    """
    params = tree_params(q)
    q = params.q
    mmax = int(mmax)
    mu = np.empty(mmax + 1)
    mu[0] = 1.0
    if mmax >= 1:
        powers = float(q) ** np.arange(0, mmax)
        mu[1:] = (q - 1) * powers
    return mu


def haar_residual(ball, values):
    """Exact defect of the horocyclic mass decomposition for rational data.

    Computes ``sum_x f(x) - sum_cells q^{-h} mass(h, m) avg_cell(f)`` in
    exact :class:`fractions.Fraction` arithmetic, where ``mass(h, m)`` is
    ``q^h`` on the reference ray and the shell mass ``mu_m`` otherwise.
    Every cell of a ball is complete, so the result is exactly 0; the
    function exists to let that be *checked* rather than assumed.
    """
    q = ball.params.q
    vals = [Fraction(v) for v in values]
    if len(vals) != ball.size:
        raise DomainError(f"expected {ball.size} values, got {len(vals)}")
    total = sum(vals, Fraction(0))

    cells = {}
    for i in range(ball.size):
        key = (int(ball.height[i]), int(ball.merge[i]))
        acc = cells.get(key)
        if acc is None:
            cells[key] = [vals[i], 1]
        else:
            acc[0] += vals[i]
            acc[1] += 1

    recon = Fraction(0)
    for (h, m), (cell_sum, cell_count) in cells.items():
        if m == h:
            mass = Fraction(q) ** h
        elif m == 0:
            mass = Fraction(1)
        else:
            mass = Fraction(q) ** m - Fraction(q) ** (m - 1)
        recon += Fraction(q) ** (-h) * mass * cell_sum / cell_count
    return total - recon


# ---------------------------------------------------------------------------
# Certified operator-norm lower bounds
# ---------------------------------------------------------------------------

_TREE_POWER_ITERATES = 200


def _radial_adjacency(h, q, p):
    """Nearest-neighbour sum, within the ball, of a radial function in scaled coordinates.

    A radial function with per-sphere values ``g`` is stored as
    ``h[0] = g[0]``, ``h[d] = q^{(d-1)/p} g[d]``.  The unscaled sum
    ``out[0] = (q+1) g[1]``, ``out[d] = g[d-1] + q g[d+1]``,
    ``out[R] = g[R-1]`` then has the bounded coefficients below, and the
    ``l^p`` norm has the sphere weights ``1, q+1, q+1, ...``
    (:func:`_radial_norm`), so no sphere size is ever formed.  At ``p = 1``
    and ``p = inf`` every coefficient is an integer.
    """
    up = float(q) ** (1.0 / p)
    down = q / up
    out = np.empty_like(h)
    out[0] = (q + 1) * h[1]
    out[1] = h[0]
    out[2:] = up * h[1:-1]
    out[1:-1] += down * h[2:]
    return out


def _radial_convolve(kv, h, q, p):
    """Ball convolution by ``kv`` of a radial function in scaled coordinates.

    :func:`_sphere_sum_convolve` with :func:`_radial_adjacency` as ``A``;
    exact for ``h`` supported in the ball of radius ``R - D``.
    """
    return _sphere_sum_convolve(kv, h, lambda g: _radial_adjacency(g, q, p), q)


def _radial_norm(h, q, p):
    """``l^p`` norm on the tree of the radial function with scaled sphere values ``h``."""
    mag = np.abs(h)
    if math.isinf(p):
        return float(mag.max())
    return float((mag[0] ** p + (q + 1) * np.sum(mag[1:] ** p)) ** (1.0 / p))


def _scaled(g, q, p):
    """Scaled coordinates of the per-sphere values ``g``, divided by the outer sphere's scale.

    Ratios do not see the common factor, and dividing by the largest
    scale keeps every entry at most ``|g|`` at any radius.
    """
    d = np.arange(g.size)
    return g * float(q) ** ((np.maximum(d, 1) - max(g.size - 1, 1)) / p)


def opnorm_lower(kernel, p, radius):
    """Best certified lower bound for the ``l^p`` norm of radial convolution.

    Works on the radial quotient of the ball of the given radius: a
    radial function is its ``radius + 1`` sphere values, and the ball
    convolution of a radial function is again radial, so every
    convolution costs ``O(radius * D)`` (``D`` the kernel radius) instead
    of the ``O(q^radius * D)`` of an explicit :class:`TreeBall`.  Every
    candidate ``f`` is supported in the ball of radius ``radius - D``,
    where the ball convolution is exact, so every ratio
    ``||k * f||_p / ||f||_p`` is a true lower bound for the operator norm
    on the whole tree.  Candidates, all radial: the point mass at the
    base vertex (``delta``, sharp at ``p = 1``), ball indicators at
    dyadic radii (``ball[r]``), a phase-matched profile concentrated at
    the base vertex (``matched-row``, sharp at ``p = inf`` once the window
    holds the kernel), and the first :data:`_TREE_POWER_ITERATES` iterates
    of :func:`~treeharmonics.zline.duality_ascent` (for ``1 < p < inf``),
    named ``power[k]`` after the first iterate to reach the best ratio.  A
    candidate whose ratio overflows certifies nothing and is skipped.
    Returns ``(bound, method)``.
    """
    p = check_exponent(p)
    kernel = kernel.trimmed()
    q = kernel.params.q
    kv = kernel.values
    D = kernel.radius
    radius = int(radius)
    window = radius - D
    if window < 0:
        raise DomainError(
            f"ball radius {radius} too small for kernel radius {D}: "
            "no support window is left for trial functions"
        )
    nw = window + 1

    best = 0.0
    best_name = "none"

    def consider(ratio, name):
        nonlocal best, best_name
        if best < ratio < math.inf:
            best = ratio
            best_name = name

    def padded(hw):
        h = np.zeros(radius + 1, dtype=complex)
        h[: hw.size] = hw
        return h

    def trial(hw, name):
        denom = _radial_norm(hw, q, p)
        if denom != 0.0:
            consider(_radial_norm(_radial_convolve(kv, padded(hw), q, p), q, p) / denom, name)

    trial(np.ones(1, dtype=complex), "delta")
    r = 1
    radii = []
    while r < window:
        radii.append(r)
        r *= 2
    if window >= 1:
        radii.append(window)
    for r in radii:
        trial(_scaled(np.ones(r + 1, dtype=complex), q, p), f"ball[{r}]")

    # phase-matched row conj(k) |k|^{1/(p-1) - 1}; the bare phase at p = 1 and p = inf
    rmatch = min(D, window)
    expo = 1.0 / (p - 1.0) if 1.0 < p < math.inf else 0.0
    matched = phase_power(np.conj(kv[: rmatch + 1]), expo)
    trial(_scaled(matched, q, p), "matched-row")

    if 1.0 < p < math.inf:
        # In scaled coordinates the adjoint of convolution by k is
        # convolution by conj(k) at the dual exponent.
        pd = dual_exponent(p)
        conj_kv = np.conj(kv)
        for k, value in duality_ascent(
            lambda x: _radial_convolve(kv, x, q, p),
            lambda w: padded(_radial_convolve(conj_kv, w, q, pd)[:nw]),
            lambda x: _radial_norm(x, q, p),
            padded(_scaled(np.ones(nw, dtype=complex), q, p)),
            p,
            _TREE_POWER_ITERATES,
        ):
            consider(value, f"power[{k}]")
    return best, best_name
