"""Finite balls of a homogeneous tree: geometry, census, convolution.

Vertices of the closed ball of radius ``R`` are indexed breadth-first
from the base vertex, so each sphere occupies a contiguous index block
and the children of every vertex occupy a contiguous block of the next
sphere: ``q + 1`` for the base vertex and ``q`` for every other vertex,
in parent order.  The level offsets alone therefore fix every parent and
child.  A distinguished doubly infinite geodesic through the base vertex
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
values, rescaled so that no sphere size is formed at any radius.  It
runs that recurrence once per operator, on one comb per residue class
modulo ``2D + 1``, to build the quotient operator as a band of ``2D + 1``
diagonals.  The three closed-form trials and every ascent iterate then
go through one ``O(R * D)`` band product each way; at ``p`` in ``{1,
inf}``, where the norm is the tree ``l^1`` norm, it does not run.  The
tree is bipartite, so a kernel supported on distances of one parity maps
the even spheres and the odd spheres to disjoint sets of spheres; its
norm is the larger of two block norms, and the ascent runs once inside
each block instead of waiting for the weaker block to die out.  The
explicit :class:`TreeBall` (at most :data:`MAX_BALL_VERTICES` vertices)
serves the transference check and the tests; the census command uses the
closed form :func:`census_cells`.  The transference check runs no
convolution on it: every vertex has one neighbour a height above it and
the rest a height below, and the ball's up-gather and down-sum, read off
the level offsets, walk the geodesics.
"""

import functools
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

    The base vertex has ``q + 1`` children and every other vertex ``q``,
    listed in parent order, so the level offsets fix every parent and
    child: vertex ``i >= 1`` has the ``q`` children that start at
    ``level_start[2] + q * (i - 1)``.

    - ``level_start``: length ``R + 2``, sphere ``d`` is
      ``level_start[d]:level_start[d + 1]``;
    - ``depth``: hop distance to the base vertex;
    - ``merge``: depth of the deepest upward-ray ancestor;
    - ``height``: horocycle index ``2 * merge - depth``.

    Breadth-first, every sub-ball ``B_r`` is a prefix of the ball, so
    :meth:`up_gather` and :meth:`down_sum` accept a vector of any prefix
    length ``level_start[r + 1]``.  They look the length up in a map built
    once per ball, which holds each sub-ball's offsets and ray indices.
    """

    params: object
    radius: int
    level_start: np.ndarray
    depth: np.ndarray
    merge: np.ndarray
    height: np.ndarray

    @property
    def size(self):
        return int(self.level_start[-1])

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
        outside children are treated as zero.  Every neighbour lies one
        height above or below, so this is :meth:`up_gather` plus
        :meth:`down_sum`.
        """
        f = np.asarray(f, dtype=complex)
        if f.shape != (self.size,):
            raise DomainError(f"expected a vector of length {self.size}, got {f.shape}")
        return self.up_gather(f) + self.down_sum(f)

    @functools.cached_property
    def _sub_balls(self):
        """``{level_start[r + 1]: (first, inner, below, above, mid)}``, one per sub-ball ``B_r``.

        Breadth-first, every ``B_r`` is a prefix of the ball, of length
        ``level_start[r + 1]``.  Within ``B_r`` the children of the
        vertices past the base vertex start at ``first`` and sphere ``r``,
        whose first vertex is the ray top, at ``inner``.  ``below`` and
        ``above`` index the ray vertices at depths ``0 .. r - 1`` and
        ``1 .. r``, and ``mid`` those at ``1 .. r - 1``.
        """
        starts = self.level_start.tolist()
        sub_balls = {}
        for r, size in enumerate(starts[1:]):
            ray = self.level_start[: r + 1]
            sub_balls[size] = (starts[min(2, r + 1)], starts[r], ray[:-1], ray[1:], ray[1:r])
        return sub_balls

    def _sub_ball(self, g):
        """The :attr:`_sub_balls` entry of the sub-ball whose vertices ``g`` lists."""
        sub = self._sub_balls.get(len(g))
        if sub is None:
            raise DomainError(
                f"a vector of length {len(g)} fills no sub-ball of the radius-{self.radius} ball"
            )
        return sub

    def up_gather(self, g):
        """``(P g)(x) = g(up(x))``, with ``up(x)`` the neighbour one height above ``x``.

        Off the upward ray ``up(x)`` is the breadth-first parent; the ray
        vertex at depth ``d`` goes up to the one at depth ``d + 1``, and
        the ray top, whose up-neighbour lies outside the ball, reads 0.
        ``g`` may list any sub-ball ``B_r``, a prefix of the ball; ``P``
        is then the up-gather of ``B_r``, whose ray top is at depth ``r``.
        The child blocks are written as ``q`` strided copies of the parents,
        which numpy runs faster than one broadcast assignment.
        """
        q = self.params.q
        first, inner, below, above, _ = self._sub_ball(g)
        out = np.empty_like(g)
        out[1:first] = g[0]
        blocks = out[first:].reshape(-1, q)
        parents = g[1:inner]
        for j in range(q):
            blocks[:, j] = parents
        out[below] = g[above]
        out[inner] = 0
        return out

    def down_sum(self, g):
        """``(C g)(x)``: sum of ``g`` over the neighbours one height below ``x``, within the ball.

        Off the upward ray these are the ``q`` children.  A ray vertex at
        depth ``d >= 1`` has its parent and its ``q - 1`` non-first
        children; the base vertex has its ``q`` non-first children.  Each
        sum is read from the child blocks, never as the full neighbour sum
        less the up-neighbour.  As in :meth:`up_gather`, ``g`` may list any
        sub-ball ``B_r``, whose outside children are treated as zero.
        """
        q = self.params.q
        first, inner, below, above, mid = self._sub_ball(g)
        out = np.zeros_like(g)
        out[0] = np.add.reduce(g[2:first])
        children = g[first:].reshape(-1, q)
        acc = out[1:inner]
        for j in range(q):
            acc += children[:, j]
        # vertex v >= 1 has its children in row v - 1
        out[mid] = np.add.reduce(children[mid - 1, 1:], axis=1)
        out[above] += g[below]
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
        return _sphere_sum_convolve(kernel.values, f, self.adjacency_sum, self.params.q)


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


#: Largest explicit ball :func:`ball_geometry` builds, in vertices: three
#: 8-byte arrays, about 100 MB.  q=3, R=10 has about 118k.
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
    depth = np.repeat(np.arange(radius + 1), counts)

    # each sphere repeats its parents' merge depths, except the first-child
    # chain, which is the upward reference ray
    spheres = [np.zeros(1, dtype=np.int64)]
    for d in range(1, radius + 1):
        sphere = np.repeat(spheres[-1], (q + 1) if d == 1 else q)
        sphere[0] = d
        spheres.append(sphere)
    merge = np.concatenate(spheres)

    return TreeBall(
        params=params,
        radius=radius,
        level_start=level_start,
        depth=depth,
        merge=merge,
        height=2 * merge - depth,
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
    q = tree_params(q).q
    mu = (q - 1) * float(q) ** np.arange(-1, int(mmax))
    mu[0] = 1.0
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


def _radial_norm(mag, q, p):
    """``l^p`` norm on the tree of a radial function whose scaled values have moduli ``mag``.

    numpy's array ``pow`` and its scalar ``pow`` can differ in the last
    bit, so each power here keeps its kind: the tail ``mag[1:] ** p`` is
    an array power, and the head ``mag[0] ** p`` and the root are scalar
    powers.
    """
    return float((mag[0] ** p + (q + 1) * np.add.reduce(mag[1:] ** p)) ** (1.0 / p))


def _scale_rows(tops, n, q, p):
    """Scaled coordinates of radial trials, one row of ``n`` spheres per last sphere in ``tops``.

    Row ``t`` is ``q^{(max(d, 1) - max(top_t, 1)) / p}`` at the spheres
    ``d <= top_t`` and 0 beyond: the scaled coordinates of
    :func:`_radial_adjacency`, divided by the outer sphere's scale.  Ratios
    do not see the common factor, and dividing by the largest scale keeps
    every entry at most 1 at any radius.
    """
    tops = np.asarray(tops)[:, None]
    d = np.arange(n)
    inside = d <= tops
    expos = np.where(inside, np.maximum(d, 1) - np.maximum(tops, 1), 0) / p
    return np.where(inside, float(q) ** expos, 0.0)


def _radial_band(kv, q, p, radius, columns, rows):
    """Diagonals of the radial ball convolution by ``kv``, built by residue class.

    Returns the ``(rows, 2D + 1)`` array ``band[i, k] = M[i, i - D + k]``,
    where ``M`` is :func:`_radial_convolve` on ``radius + 1`` scaled sphere
    values restricted to its first ``rows`` rows and ``columns`` columns;
    entries whose column falls outside ``0 .. columns - 1`` are 0.
    Convolution by a kernel of radius ``D`` moves sphere ``j`` to spheres
    ``j - D .. j + D``, so the columns of one residue class modulo
    ``2D + 1`` have disjoint images, and one recurrence on the comb
    ``comb[j, j mod (2D + 1)] = 1`` yields every entry.  Each entry is the
    bytes of ``M``'s own: the other columns of its class add exact zeros.
    Costs ``O(radius * D)`` time and memory; the comb and its image are
    freed on return.
    """
    D = kv.size - 1
    width = 2 * D + 1
    j = np.arange(columns)
    comb = np.zeros((radius + 1, width), dtype=complex)
    comb[j, j % width] = 1.0
    image = _radial_convolve(kv, comb, q, p)
    i = np.arange(rows)[:, None]
    return image[i, (i - D + np.arange(width)) % width]


def _band_product(band, scale):
    """``x -> scale * sum_k band[i, k] x[i - D + k]`` at each ``i``, ``x`` zero-padded.

    ``x`` has the same length at every call, so the zero padding is
    written once.  Each product writes ``x`` into one preallocated buffer
    and runs one ``einsum`` over its sliding windows: ``O(rows * D)``, and
    no BLAS call, so its bytes do not depend on the thread count.  The
    windows are one strided view of the buffer, built once: window ``i``
    starts at entry ``i`` and steps one entry at a time.
    """
    rows, width = band.shape
    D = width // 2
    buf = np.zeros(rows + width - 1, dtype=complex)
    step = buf.strides[0]
    windows = np.ndarray((rows, width), complex, buf, 0, (step, step))

    def product(x):
        buf[D : D + x.size] = x
        out = np.einsum("ij,ij->i", band, windows)
        if scale != 1.0:
            out *= scale
        return out

    return product


# an overflowing ratio is skipped, so its float64 overflow needs no warning
@np.errstate(over="ignore", invalid="ignore")
def opnorm_lower(kernel, p, radius):
    """Best certified lower bound for the ``l^p`` norm of radial convolution, ``1 < p < inf``.

    Works on the radial quotient of the ball of the given radius: a
    radial function is its ``radius + 1`` sphere values, and the ball
    convolution of a radial function is again radial.  That convolution
    is built once, as its ``2D + 1`` diagonals (``D`` the kernel radius)
    by residue class (:func:`_radial_band`), so every product costs
    ``O(radius * D)`` time instead of the ``O(q^radius * D)`` of an
    explicit :class:`TreeBall`.  The band and its adjoint's take
    ``O(radius * D)`` memory, and the comb and image each is built from
    are freed once it is built: no ``(radius + 1)``-square matrix is ever
    formed.  Every candidate ``f`` is supported in the ball of radius
    ``radius - D``, where the ball convolution is exact, so every ratio
    ``||k * f||_p / ||f||_p`` is a true lower bound for the operator norm
    on the whole tree.  Candidates, all radial and each run through the
    ascent's own band product: the point mass at the base vertex
    (``delta``), the indicator of the window (``ball[window]``), a
    phase-matched profile concentrated at the base vertex
    (``matched-row``), each ratio's denominator taken over the trial's
    own length; and the first :data:`_TREE_POWER_ITERATES` iterates of
    :func:`~treeharmonics.zline.duality_ascent`, named ``power[k]`` after
    the first iterate to reach the best ratio.  The ascent starts from the
    window's indicator; for a one-parity kernel (``D >= 1`` and ``k(d) =
    0`` whenever ``d - D`` is odd) it runs twice, from that indicator on
    the even spheres and then on the odd ones, since both bands vanish
    exactly at offsets of the other parity and each run stays in its
    block; ``k`` counts the iterates of its own run.  A candidate whose
    ratio overflows certifies nothing and is skipped.  At ``p`` in
    ``{1, inf}``, where the norm is the tree ``l^1`` norm, it raises
    :class:`~treeharmonics.params.DomainError`, as the ascent does.
    Returns ``(bound, method)``.
    """
    p = check_exponent(p)
    if not 1.0 < p < math.inf:
        raise DomainError(f"the compression runs at 1 < p < inf, got p={p:g}")
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
    # The bands hold kv / scale for a power of two scale >= 1, which is
    # exact, so that near the float64 limit no band entry overflows where
    # the product does not: an infinite entry times a zero of a trial
    # vector would give NaN.
    scale = 2.0 ** max(0, math.frexp(float(np.abs(kv).max()))[1] - 1)
    forward = _band_product(_radial_band(kv / scale, q, p, radius, nw, radius + 1), scale)
    # In scaled coordinates the adjoint of convolution by k is convolution
    # by conj(k) at the dual exponent.
    conj_band = _radial_band(np.conj(kv) / scale, q, dual_exponent(p), radius, radius + 1, nw)
    adjoint = _band_product(conj_band, scale)

    best = 0.0
    best_name = "none"

    def consider(ratio, name):
        nonlocal best, best_name
        if best < ratio < math.inf:
            best = ratio
            best_name = name

    # the closed-form trials, zero-padded to the window; at window 0 the
    # window's indicator is the delta, and a tie never wins
    rmatch = min(D, window)
    tops = (0, window, rmatch)
    trials = _scale_rows(tops, nw, q, p).astype(complex)
    trials[2, : rmatch + 1] *= phase_power(np.conj(kv[: rmatch + 1]), 1.0 / (p - 1.0))
    for name, top, trial in zip(("delta", f"ball[{window}]", "matched-row"), tops, trials):
        # over the trial's own length: padding zeros would regroup the sum
        denom = _radial_norm(np.abs(trial[: top + 1]), q, p)
        if denom != 0.0:
            consider(_radial_norm(np.abs(forward(trial)), q, p) / denom, name)

    starts = [trials[1]]
    if D >= 1 and not kv[(D + 1) % 2 :: 2].any():
        # Both bands are exactly 0 at offsets of the other parity, so the
        # even and the odd spheres are invariant blocks: one ascent each.
        odd = np.arange(nw) % 2 == 1
        starts = [np.where(odd, 0.0, trials[1]), np.where(odd, trials[1], 0.0)]
    for x0 in starts:
        for k, value in duality_ascent(
            forward, adjoint, lambda mag: _radial_norm(mag, q, p), x0, p, _TREE_POWER_ITERATES
        ):
            consider(value, f"power[{k}]")
    return best, best_name
