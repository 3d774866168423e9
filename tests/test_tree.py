"""Ball geometry, census, exact Haar decomposition, convolution, lower bounds."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    _oracle_radial_norm,
    adjacency_ball,
    ball_opnorm_lower,
    census_counter,
    dense_convolve,
    ray_heights,
    power_sum_norm,
    recurrence_opnorm_lower,
    scaled,
)
from treeharmonics import tree
from treeharmonics.abel import abel_forward
from treeharmonics.engine import tree_norm_lower
from treeharmonics.params import DomainError, dual_exponent, strip_halfwidth
from treeharmonics.spherical import (
    ball_kernel,
    delta_kernel,
    radial_kernel,
    sphere_kernel,
    sphere_sizes,
)
from treeharmonics.tree import (
    _TREE_POWER_ITERATES,
    MAX_BALL_VERTICES,
    _band_product,
    _radial_band,
    _radial_convolve,
    _radial_norm,
    ball_geometry,
    census_cells,
    haar_residual,
    opnorm_lower,
    shell_masses,
)
from treeharmonics.zline import duality_ascent, lp_norm, phase_power


# ---------------------------------------------------------------------------
# Geometry against the adjacency-list oracle
# ---------------------------------------------------------------------------

def test_ball_arrays_match_adjacency_oracle():
    for q, R in ((2, 5), (3, 4)):
        ball = ball_geometry(q, R)
        neighbors, parent, depth = adjacency_ball(q, R)
        assert ball.size == len(parent)
        assert ball.depth.tolist() == depth
        merge, height = ray_heights(neighbors, parent, depth, R)
        assert ball.merge.tolist() == merge
        assert ball.height.tolist() == height


def test_up_gather_and_down_sum_match_the_adjacency_lists():
    rng = np.random.default_rng(43)
    for q in (2, 3, 5):
        for R in (0, 1, 2, 5):
            ball = ball_geometry(q, R)
            neighbors, parent, depth = adjacency_ball(q, R)
            _, height = ray_heights(neighbors, parent, depth, R)
            g = rng.normal(size=ball.size) + 1j * rng.normal(size=ball.size)
            want_up = np.zeros(ball.size, dtype=complex)
            want_down = np.zeros(ball.size, dtype=complex)
            for x, nbrs in enumerate(neighbors):
                up = [w for w in nbrs if height[w] == height[x] + 1]
                down = [w for w in nbrs if w not in up]
                # one up-neighbour, except at the ray top, whose lies outside the ball
                assert len(up) == (0 if x == ball.level_start[R] else 1), (q, R, x)
                assert all(height[w] == height[x] - 1 for w in down), (q, R, x)
                want_up[x] = g[up[0]] if up else 0.0
                want_down[x] = sum(g[w] for w in down)
            assert np.array_equal(ball.up_gather(g), want_up), (q, R)
            # at most q + 1 terms of order 1, summed in another order
            assert np.allclose(ball.down_sum(g), want_down, rtol=0.0, atol=1e-14), (q, R)


def test_walks_on_a_prefix_are_the_sub_balls_walks():
    # breadth-first, B_r is a prefix of the ball: up_gather and down_sum of
    # a prefix vector are those of the radius-r ball, bytes included, and a
    # length that fills no sub-ball is refused
    rng = np.random.default_rng(97)
    for q in (2, 3, 5):
        ball = ball_geometry(q, 5)
        for r in range(6):
            sub = ball_geometry(q, r)
            g = rng.normal(size=sub.size) + 1j * rng.normal(size=sub.size)
            assert ball.up_gather(g).tobytes() == sub.up_gather(g).tobytes(), (q, r)
            assert ball.down_sum(g).tobytes() == sub.down_sum(g).tobytes(), (q, r)
            real = np.abs(g)
            assert ball.up_gather(real).tobytes() == sub.up_gather(real).tobytes(), (q, r)
        for length in (0, 2, ball.size - 1, ball.size + 1):
            with pytest.raises(DomainError, match="fills no sub-ball"):
                ball.up_gather(np.zeros(length))
            with pytest.raises(DomainError, match="fills no sub-ball"):
                ball.down_sum(np.zeros(length))


def test_walks_refuse_every_length_that_fills_none_of_their_own_sub_balls():
    # each ball looks a vector's length up in its own map: a length is
    # taken only where it is one of that ball's prefixes, and every other
    # one (0, a length between two prefixes, one longer than the ball, a
    # prefix of a ball of another q or radius) is refused with one text.
    # The balls walk in turn, so a map shared between them would show
    balls = [ball_geometry(q, R) for q in (2, 3) for R in (3, 4)]
    lengths = {0}
    for ball in balls:
        starts = ball.level_start[1:].tolist()
        lengths.update(starts)
        lengths.update(n + 1 for n in starts)
        lengths.add(2 * ball.size)
    for length in sorted(lengths):
        g = np.arange(length) * (1.0 + 1.0j)
        for ball in balls:
            if length in ball.level_start[1:].tolist():
                r = ball.level_start[1:].tolist().index(length)
                sub = ball_geometry(ball.params.q, r)
                assert ball.up_gather(g).tobytes() == sub.up_gather(g).tobytes()
                assert ball.down_sum(g).tobytes() == sub.down_sum(g).tobytes()
                continue
            text = f"a vector of length {length} fills no sub-ball of the radius-{ball.radius} ball"
            for walk in (ball.up_gather, ball.down_sum):
                with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
                    walk(g)


def test_distance_recovered_from_horocyclic_coordinates():
    for q in (2, 3):
        ball = ball_geometry(q, 8)
        m = ball.merge
        h = ball.height
        want = np.maximum(2 * m - h, h)
        assert np.array_equal(want, ball.depth)


def test_height_steps_by_one_from_every_parent():
    # the transference check's up-gathers and down-sums rest on this
    for q in (2, 3, 5):
        for R in (0, 1, 2, 6):
            ball = ball_geometry(q, R)
            first = int(ball.level_start[min(2, R + 1)])
            child = np.arange(1, ball.size)
            parent = np.where(child < first, 0, 1 + (child - first) // q)
            step = ball.height[child] - ball.height[parent]
            assert np.array_equal(np.abs(step), np.ones(ball.size - 1)), (q, R)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def test_census_matches_vertex_counter_oracle():
    for q, R in ((2, 6), (3, 5)):
        ball = ball_geometry(q, R)
        got = [tuple(int(x) for x in row) for row in ball.census()]
        assert got == census_counter(q, R)


def test_census_matches_closed_form_cells():
    for q, R in ((2, 8), (3, 8)):
        ball = ball_geometry(q, R)
        assert np.array_equal(ball.census(), census_cells(q, R))


def test_census_counts_total_ball_size():
    for q, R in ((2, 7), (5, 3)):
        ball = ball_geometry(q, R)
        assert int(ball.census()[:, 3].sum()) == ball.size
        assert ball.size == int(sphere_sizes(ball.params, R).sum())


def test_shell_masses_telescope():
    for q in (2, 3, 7):
        mu = shell_masses(q, 9)
        running = np.cumsum(mu)
        assert np.array_equal(running, float(q) ** np.arange(10))


# ---------------------------------------------------------------------------
# Exact Haar decomposition
# ---------------------------------------------------------------------------

def test_haar_residual_is_exactly_zero_on_rational_data():
    rng = np.random.default_rng(31)
    for q, R in ((2, 6), (3, 5)):
        ball = ball_geometry(q, R)
        for _ in range(10):
            vals = [
                Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 17)))
                for _ in range(ball.size)
            ]
            assert haar_residual(ball, vals) == 0


def test_haar_residual_validates_length():
    ball = ball_geometry(2, 2)
    with pytest.raises(DomainError):
        haar_residual(ball, [Fraction(1)] * (ball.size - 1))


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def test_adjacency_sum_matches_neighbor_lists():
    # radii 0, 1 and 2 are the edges of the block layout: no children,
    # only the base vertex's children, and the first blocks of q
    rng = np.random.default_rng(37)
    cases = [(q, R) for q in (2, 3, 5) for R in (0, 1, 2)] + [(2, 4), (3, 3)]
    for q, R in cases:
        ball = ball_geometry(q, R)
        neighbors, _, _ = adjacency_ball(q, R)
        f = rng.normal(size=ball.size) + 1j * rng.normal(size=ball.size)
        got = ball.adjacency_sum(f)
        want = np.array([sum(f[w] for w in neighbors[v]) for v in range(ball.size)])
        assert got.shape == (ball.size,)
        assert np.abs(got - want).max() <= 1e-13, (q, R)


def test_adjacency_sum_is_accurate_per_vertex_on_positive_data():
    # positive data sums without cancellation, so each vertex's sum over
    # its own neighbours is good to an ulp or two, at any ball size
    rng = np.random.default_rng(53)
    for q, R in ((3, 8), (2, 14)):
        ball = ball_geometry(q, R)
        neighbors, _, _ = adjacency_ball(q, R)
        f = rng.uniform(1.0, 2.0, size=ball.size)
        got = ball.adjacency_sum(f)
        want = np.array([math.fsum(f[w] for w in neighbors[v]) for v in range(ball.size)])
        assert np.max(np.abs(got - want) / want) <= 1e-15, (q, R)


def test_convolve_matches_dense_oracle_on_supported_window():
    rng = np.random.default_rng(41)
    for q, R, D in ((2, 5, 2), (3, 4, 2), (2, 6, 3)):
        ball = ball_geometry(q, R)
        neighbors, _, _ = adjacency_ball(q, R)
        kvals = rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
        kernel = radial_kernel(q, kvals)
        window = int(ball.level_start[R - D + 1])
        f = np.zeros(ball.size, dtype=complex)
        f[:window] = rng.normal(size=window) + 1j * rng.normal(size=window)
        got = ball.convolve(kernel, f)
        want = dense_convolve(neighbors, kvals, f)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-12 * scale


def test_convolve_with_delta_is_identity():
    ball = ball_geometry(2, 3)
    rng = np.random.default_rng(43)
    f = rng.normal(size=ball.size)
    out = ball.convolve(delta_kernel(2), f)
    assert np.abs(out - f).max() == 0.0


def test_convolve_validates_inputs():
    ball = ball_geometry(2, 3)
    with pytest.raises(DomainError):
        ball.convolve(delta_kernel(3), np.zeros(ball.size))
    with pytest.raises(DomainError):
        ball.convolve(delta_kernel(2), np.zeros(3))


def test_ball_geometry_refuses_balls_over_the_vertex_budget():
    # q=2, R=21 has 6.3M vertices; q=10, R=10 about 1.1e10
    tracemalloc.start()
    try:
        for q, R in ((2, 21), (10, 10), (3, 10**9)):
            with pytest.raises(DomainError, match="budget"):
                ball_geometry(q, R)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sphere_sizes(2, 20).sum() <= MAX_BALL_VERTICES < sphere_sizes(2, 21).sum()


# ---------------------------------------------------------------------------
# Compression lower bounds
# ---------------------------------------------------------------------------

def test_opnorm_lower_is_exact_for_delta():
    for p in (1.01, 1.5, 2.0, 3.0, 100.0):
        bound, method = opnorm_lower(delta_kernel(2), p, 4)
        assert bound == pytest.approx(1.0, abs=1e-12)
        assert isinstance(method, str) and method


def test_endpoint_trials_attain_the_l1_norm_on_explicit_balls():
    # the theorem behind the exact lower end at p in {1, inf}: the delta at
    # p = 1, and at p = inf the phase-matched row once the window B_{R-D}
    # holds the kernel, attain the tree l1 norm, checked vertex by vertex
    rng = np.random.default_rng(61)
    for q, D in itertools.product((2, 3), range(4)):
        kernels = [
            ball_kernel(q, D),
            sphere_kernel(q, D),
            radial_kernel(q, rng.normal(size=D + 1)),
            radial_kernel(q, rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)),
        ]
        for kernel, R in itertools.product(kernels, (max(2 * D, 1), 2 * D + 2)):
            l1 = kernel.l1_on_tree()
            ball = ball_geometry(q, R)
            delta = np.zeros(ball.size, dtype=complex)
            delta[0] = 1.0
            assert power_sum_norm(ball.convolve(kernel, delta), 1.0) == pytest.approx(l1, rel=1e-12)
            row = kernel.values[ball.depth[: ball.level_start[D + 1]]]
            matched = np.zeros(ball.size, dtype=complex)
            matched[: row.size] = phase_power(np.conj(row), 0.0)
            ratio = power_sum_norm(ball.convolve(kernel, matched), math.inf) / power_sum_norm(
                matched, math.inf
            )
            assert ratio == pytest.approx(l1, rel=1e-12), (q, kernel.values, R)


def test_herz_trials_tend_to_the_herz_norm_through_the_radial_band():
    # the theorem behind the exact:herz lower end: f_W(x) = q^{-|x|/p} 1[|x| <= W]
    # is an eigenfunction away from the origin, so its Rayleigh ratio, taken
    # through the radial band on the ball of radius W + D, stays below Herz's
    # ||F||_1 and closes on it like 1/W
    kernels = (
        ball_kernel(2, 2),
        sphere_kernel(3, 3),
        radial_kernel(5, [0.3, 1.0, 0.0, 2.0]),
        radial_kernel(2, [-1.0, -0.5]),
    )
    for kernel, p in itertools.product(kernels, (1.1, 1.5, 3.0, 7.0)):
        q, D = kernel.params.q, kernel.radius
        herz = abel_forward(kernel).shifted(strip_halfwidth(p)).l1()
        gaps = []
        for W in (10**3, 10**4):
            band = _radial_band(kernel.values, q, p, W + D, W + 1, W + D + 1)
            # in scaled coordinates f_W is 1 at the origin and q^{-1/p} on every sphere
            trial = np.full(W + 1, float(q) ** (-1.0 / p), dtype=complex)
            trial[0] = 1.0
            image = _band_product(band, 1.0)(trial)
            ratio = _radial_norm(np.abs(image), q, p) / _radial_norm(np.abs(trial), q, p)
            assert ratio <= herz * (1.0 + 1e-12), (q, D, p, W)
            gaps.append(herz - ratio)
        assert 9.5 < gaps[0] / gaps[1] < 10.5, (q, D, p, gaps)
        # the exact route lies above every finite trial
        assert tree_norm_lower(kernel, p) == (pytest.approx(herz, rel=1e-13), "exact:herz")
        assert tree_norm_lower(kernel, p)[0] > herz - gaps[1]


def test_opnorm_lower_refuses_the_endpoints():
    # at p in {1, inf} the norm is the tree l1 norm, reported by tree_norm_lower
    for p in (1.0, math.inf):
        with pytest.raises(DomainError):
            opnorm_lower(ball_kernel(2, 2), p, 5)


def test_opnorm_lower_never_exceeds_l1():
    rng = np.random.default_rng(47)
    for _ in range(6):
        q = int(rng.choice([2, 3]))
        D = int(rng.integers(0, 3))
        vals = rng.normal(size=D + 1)
        kernel = radial_kernel(q, vals)
        for p in (1.01, 4.0 / 3.0, 2.0, 4.0):
            bound, _ = opnorm_lower(kernel, p, D + 3)
            assert bound <= kernel.l1_on_tree() * (1.0 + 1e-10)


def test_opnorm_lower_matches_explicit_ball_oracle():
    rng = np.random.default_rng(0)
    complex3 = radial_kernel(2, rng.normal(size=4) + 1j * rng.normal(size=4))
    cases = [(ball_kernel(2, 2), 1.5, 10)]
    cases += [(sphere_kernel(3, 3), p, 8) for p in (4.0 / 3.0, 1.5, 3.0)]
    cases += [(complex3, 4.0 / 3.0, 8)]
    for kernel, p, R in cases:
        expected, oracle_method = ball_opnorm_lower(ball_geometry(kernel.params.q, R), kernel, p)
        bound, method = opnorm_lower(kernel, p, R)
        assert bound == pytest.approx(expected, rel=1e-12), (kernel.values, p, R)
        assert method == oracle_method
    assert oracle_method.startswith("power[")


def test_opnorm_lower_needs_a_support_window():
    with pytest.raises(DomainError):
        opnorm_lower(ball_kernel(2, 2), 2.0, 1)


def test_radial_band_is_the_dense_image_byte_for_byte():
    rng = np.random.default_rng(3)
    for q, D in itertools.product((2, 3, 5), (0, 1, 3)):
        kernels = [
            rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1),
            (1.0 - 2.0j) * sphere_kernel(q, D).values,  # leading zeros
        ]
        # R = D + 1 and D + 3 leave windows of nw < 2D + 1 columns
        for kv, R, p in itertools.product(kernels, (D + 1, D + 3, 3 * D + 20), (1.0, 1.5, math.inf)):
            nw = R - D + 1
            # the forward band on the window columns, the adjoint band on the window rows
            bands = [(kv, p, nw, R + 1)]
            if 1.0 < p < math.inf:
                bands.append((np.conj(kv), dual_exponent(p), R + 1, nw))
            for k, pk, columns, rows in bands:
                dense = _radial_convolve(k, np.eye(R + 1), q, pk)
                row, col = np.indices(dense.shape)
                assert not dense[np.abs(row - col) > D].any(), (q, D, R, p)
                band = _radial_band(k, q, pk, R, columns, rows)
                assert band.shape == (rows, 2 * D + 1)
                for i, c in itertools.product(range(rows), range(2 * D + 1)):
                    j = i - D + c
                    if 0 <= j < columns:
                        assert band[i, c].tobytes() == dense[i, j].tobytes(), (q, D, R, p, i, j)
                    else:
                        assert band[i, c] == 0.0


def test_opnorm_lower_matches_the_recurrence_form():
    rng = np.random.default_rng(0)
    complex3 = radial_kernel(3, rng.normal(size=4) + 1j * rng.normal(size=4))
    # the report-deep cases, then two large radii
    cases = [
        (sphere_kernel(3, 3), 1.5, 9),
        (sphere_kernel(3, 2), 4.0 / 3.0, 9),
        (ball_kernel(3, 2), 3.0, 10),
        (complex3, 1.5, 9),
        (sphere_kernel(2, 3), 1.5, 12),
        (sphere_kernel(2, 3), 3.0, 13),
        (ball_kernel(2, 2), 1.5, 14),
        (ball_kernel(2, 2), 1.5, 160),
        (ball_kernel(2, 2), 1.5, 1000),
    ]
    for kernel, p, R in cases:
        bound, method = opnorm_lower(kernel, p, R)
        expected, expected_method = recurrence_opnorm_lower(kernel, p, R)
        assert bound == pytest.approx(expected, rel=1e-14, abs=0.0), (kernel.values, p, R)
        assert method == expected_method


def test_opnorm_lower_matches_the_recurrence_form_on_a_seeded_sweep():
    rng = np.random.default_rng(11)
    for case in range(60):
        q = int(rng.choice([2, 3, 5]))
        D = int(rng.integers(0, 5))
        vals = rng.normal(size=D + 1)
        if case % 2:
            vals = vals + 1j * rng.normal(size=D + 1)
        kernel = radial_kernel(q, vals)
        R = int(rng.integers(D + 1, 3 * D + 21))
        for p in (1.1, 4.0 / 3.0, 1.5, 3.0, 7.0):
            bound, method = opnorm_lower(kernel, p, R)
            expected, expected_method = recurrence_opnorm_lower(kernel, p, R)
            assert bound == pytest.approx(expected, rel=1e-14, abs=0.0), (vals, p, R)
            # a different winner only between trials that tie exactly
            if method != expected_method:
                assert bound == pytest.approx(expected, rel=1e-15, abs=0.0), (vals, p, R)


def _one_parity_kernels(rng, q, D):
    """The sphere indicator of radius ``D`` and a seeded complex kernel on the spheres of its parity."""
    vals = np.zeros(D + 1, dtype=complex)
    vals[D % 2 :: 2] = rng.normal(size=D // 2 + 1) + 1j * rng.normal(size=D // 2 + 1)
    return [sphere_kernel(q, D), radial_kernel(q, vals)]


def test_radial_bands_of_one_parity_kernels_vanish_off_parity():
    # band column c holds offset c - D, of the kernel's parity exactly when c is even
    rng = np.random.default_rng(5)
    for q, D, p in itertools.product((2, 3, 5), range(1, 6), (1.1, 1.5, 3.0)):
        for kernel in _one_parity_kernels(rng, q, D):
            kv = kernel.values
            for R in (D + 1, D + 4, 3 * D + 10):
                nw = R - D + 1
                forward = _radial_band(kv, q, p, R, nw, R + 1)
                adjoint = _radial_band(np.conj(kv), q, dual_exponent(p), R, R + 1, nw)
                for band in (forward, adjoint):
                    assert band[:, 0::2].any(), (q, D, p, R)
                    assert np.all(band[:, 1::2] == 0.0), (q, D, p, R)


def test_opnorm_lower_on_one_parity_kernels_keeps_the_single_start_ascent():
    # the ascent from the whole window, as it ran before the parity split
    rng = np.random.default_rng(7)
    for case in range(48):
        q = int(rng.choice([2, 3, 5]))
        D = int(rng.integers(1, 7))
        p = float(rng.choice([1.1, 4.0 / 3.0, 1.5, 3.0]))
        R = int(rng.choice([D + 3, D + 8, 2 * D + 10]))
        kernel = _one_parity_kernels(rng, q, D)[case % 2]
        kv = kernel.values
        nw = R - D + 1
        forward = _band_product(_radial_band(kv, q, p, R, nw, R + 1), 1.0)
        adjoint = _band_product(_radial_band(np.conj(kv), q, dual_exponent(p), R, R + 1, nw), 1.0)
        single = max(
            value
            for _, value in duality_ascent(
                forward,
                adjoint,
                lambda mag: _radial_norm(mag, q, p),
                scaled(np.ones(nw, dtype=complex), q, p),
                p,
                _TREE_POWER_ITERATES,
            )
        )
        bound, _ = opnorm_lower(kernel, p, R)
        # within the ascent's 1e-10 stopping tolerance
        assert bound >= (1.0 - 1e-9) * single, (q, kv, p, R)


def test_opnorm_lower_on_the_report_deep_sphere_kernels_wins_early():
    # one ascent from both parity blocks crept to 122-200 iterates here
    for kernel, p, R in (
        (sphere_kernel(3, 3), 1.5, 9),
        (sphere_kernel(3, 2), 4.0 / 3.0, 9),
        (sphere_kernel(2, 3), 1.5, 12),
        (sphere_kernel(2, 3), 3.0, 13),
    ):
        _, method = opnorm_lower(kernel, p, R)
        match = re.fullmatch(r"power\[(\d+)\]", method)
        assert match and int(match.group(1)) < 50, (kernel.values, p, R, method)


def test_opnorm_lower_builds_one_band_per_operator(monkeypatch):
    calls = []

    def counted(kv, h, q, p):
        calls.append(h.shape)
        return _radial_convolve(kv, h, q, p)

    monkeypatch.setattr(tree, "_radial_convolve", counted)
    for p in (1.5, 3.0):
        calls.clear()
        opnorm_lower(sphere_kernel(3, 3), p, 12)
        # one recurrence per band, on the (R + 1) x (2D + 1) comb
        assert calls == [(13, 7)] * 2, p
    for p in (1.0, math.inf):
        with pytest.raises(DomainError):
            opnorm_lower(sphere_kernel(3, 3), p, 12)
    assert calls == [(13, 7)] * 2  # the refused exponents build no band


def test_opnorm_lower_at_a_large_radius_keeps_a_band_not_a_matrix():
    # a dense (R + 1) x nw operator at R = 4000 alone holds 256 MB
    tracemalloc.start()
    try:
        bound, _ = opnorm_lower(sphere_kernel(3, 3), 4.0 / 3.0, 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(bound) and bound > 0.0
    assert peak < 16 << 20


def test_opnorm_lower_near_the_float64_limit_matches_the_recurrence_form():
    # an overflowing band entry times a zero of a trial vector would be NaN
    for vals in ([1e308, 1e308], [1e308, 0.0, 1e308], [5e307, 1e308j, 3e307], [1.0, 1e308]):
        for q in (2, 3):
            kernel = radial_kernel(q, vals)
            for p in (1.01, 1.5, 7.0):
                R = kernel.radius + 3
                bound, method = opnorm_lower(kernel, p, R)
                expected, expected_method = recurrence_opnorm_lower(kernel, p, R)
                assert bound == pytest.approx(expected, rel=1e-14, abs=0.0), (vals, q, p)
                assert method == expected_method


def test_norms_keep_the_kind_of_each_power_byte_for_byte():
    # numpy's array pow and its scalar pow differ in the last bit on some
    # entries, so a norm that raised its head entry, or took its root, as an
    # array power would move bytes here: random moduli with a dominant entry
    # 0, exact zeros and subnormals
    rng = np.random.default_rng(29)
    mags = np.abs(rng.normal(size=(400, 9)))
    mags[:, 0] *= 10.0 ** rng.integers(1, 4, size=400)
    mags[rng.random(mags.shape) < 0.2] = 0.0
    mags[5::7, 1:] *= 1e-310
    mags[6::7, 3] = 5e-324
    for p in (4.0 / 3.0, 1.5, 3.0, 7.0):
        for q, mag in itertools.product((2, 3), mags):
            want = repr(_oracle_radial_norm(mag, q, p))
            assert repr(_radial_norm(mag, q, p)) == want, (mag, q, p)
        for mag in mags:
            assert repr(lp_norm(mag, p)) == repr(power_sum_norm(mag, p)), (mag, p)


def test_opnorm_lower_keeps_its_pinned_bytes():
    # repr of (value, method), so that a change of evaluation order that moves
    # a last bit fails here: the report-deep cases, the golden case, and a
    # one-parity kernel whose two ascents both reach the cap
    rng = np.random.default_rng(0)
    complex3 = radial_kernel(3, rng.normal(size=4) + 1j * rng.normal(size=4))
    pinned = [
        (sphere_kernel(3, 3), 1.5, 9, "16.289927010177557", "power[13]"),
        (sphere_kernel(3, 2), 4.0 / 3.0, 9, "8.405750222011234", "power[22]"),
        (ball_kernel(3, 2), 3.0, 10, "11.9679450695525", "power[20]"),
        (complex3, 1.5, 9, "26.248855594950566", "power[13]"),
        (sphere_kernel(2, 3), 1.5, 12, "7.97117868221558", "power[16]"),
        (sphere_kernel(2, 3), 3.0, 13, "7.844895507954829", "power[14]"),
        (ball_kernel(2, 2), 1.5, 14, "8.67288659298424", "power[44]"),
        (ball_kernel(2, 2), 1.5, 10, "8.466083379857286", "power[25]"),
        (sphere_kernel(2, 3), 1.5, 160, "8.8327835982177", "power[200]"),
    ]
    for kernel, p, R, value, method in pinned:
        bound, name = opnorm_lower(kernel, p, R)
        assert (repr(bound), name) == (value, method), (kernel.values, p, R)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ball_geometry(2, 3).adjacency_sum(np.zeros(3)),
         "expected a vector of length 22, got (3,)"),
        (lambda: ball_geometry(2, -1), "ball radius must be >= 0, got -1"),
    ],
)
def test_tree_refuses_invalid_input_with_its_message(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
