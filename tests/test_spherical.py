"""c-function identities, spherical functions, and the transform pair."""

import math

import numpy as np
import pytest

from oracles import (
    c_inverse_line_sup,
    cosine_matrix_transform,
    grid_line_sup,
    mp_c_function,
    mp_line_sup,
    recurrence_spherical,
    uncached_grid_transform,
    uncached_inverse_transform,
)
from treeharmonics.params import DomainError, strip_halfwidth, torus_grid, tree_params
from treeharmonics.spherical import (
    RadialKernel,
    TorusSymbol,
    _cosine_table,
    _grid_cosines,
    _inversion_weights,
    ball_kernel,
    c_function,
    c_inverse,
    c_inverse_shifted,
    delta_kernel,
    inverse_spherical_transform,
    radial_kernel,
    spectral_eigenvalue,
    sphere_kernel,
    sphere_sizes,
    spherical_function,
    spherical_transform,
    spherical_transform_at,
)


def random_strip_points(params, rng, count, vmax=0.49):
    """Spectral parameters in the open strip, kept away from the lattice."""
    tau = params.period
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-tau, tau), rng.uniform(-vmax, vmax))
        m = round(z.real / (tau / 2.0))
        if abs(z - m * tau / 2.0) > 1e-3:
            pts.append(z)
    return np.array(pts)


# ---------------------------------------------------------------------------
# c-function
# ---------------------------------------------------------------------------

def test_c_function_partition_of_unity():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        params = tree_params(q)
        z = random_strip_points(params, rng, 100)
        res = np.abs(c_function(params, z) + c_function(params, -z) - 1.0)
        assert res.max() <= 1e-12


def test_c_function_matches_high_precision_oracle():
    rng = np.random.default_rng(11)
    for q in (2, 3):
        params = tree_params(q)
        for z in random_strip_points(params, rng, 20):
            got = c_function(params, z)
            want = mp_c_function(q, z)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_c_function_quarter_period_value():
    for q in (2, 3, 5):
        params = tree_params(q)
        assert c_function(params, params.period / 4.0) == pytest.approx(0.5, abs=1e-14)


def test_c_function_pole_guard():
    params = tree_params(2)
    for z in (0.0, params.period / 2.0, -params.period, 1e-10):
        with pytest.raises(DomainError):
            c_function(params, z)


def test_c_inverse_is_reciprocal_and_regular_on_lattice():
    params = tree_params(3)
    rng = np.random.default_rng(3)
    z = random_strip_points(params, rng, 50, vmax=0.3)
    prod = c_function(params, z) * c_inverse(params, z)
    assert np.abs(prod - 1.0).max() <= 1e-12
    # regular at the former poles of c: these are now zeros of 1/c
    assert abs(c_inverse(params, 0.0)) <= 1e-12
    with pytest.raises(DomainError):
        c_inverse(params, 0.5j)


def test_c_inverse_shifted_domain():
    params = tree_params(2)
    s = np.linspace(-2.0, 2.0, 7)
    # the closed right endpoint is fine, the open left endpoint is not
    c_inverse_shifted(params, s, 0.5)
    with pytest.raises(DomainError):
        c_inverse_shifted(params, s, -0.5)
    with pytest.raises(DomainError):
        c_inverse_shifted(params, s, 0.7)


def test_c_inverse_line_sup_matches_dense_grid():
    for q in (2, 3, 5):
        params = tree_params(q)
        for v in (-0.45, -0.3, -0.25, -0.1, 0.0, 0.1, 1.0 / 6.0, 0.3, 0.5):
            closed = c_inverse_line_sup(params, v)
            grid = grid_line_sup(q, v)
            # the closed form is an exact sup: it dominates every sample
            # and the dense grid gets within refinement error of it
            assert closed >= grid - 1e-9 * closed
            assert closed <= grid * (1.0 + 1e-5)


def test_c_inverse_line_sup_matches_mpmath_next_to_the_pole_guard():
    # the lines Im z = -+delta(p) of the height split, and lines within
    # 1e-7 of the pole line Im z = -1/2 where B - 2 cancels in the A/B form
    shifts = [-0.5 + 1e-8, -0.5 + 2e-8, -0.5 + 5e-8, -0.5 + 1e-7, -0.25, 0.0, 0.25, 0.5]
    for p in np.linspace(1.0000001, 1.99, 25):
        shifts += [strip_halfwidth(p), -strip_halfwidth(p)]
    for q in (2, 3, 5, 7):
        params = tree_params(q)
        for v in shifts:
            exact = mp_line_sup(q, v)
            assert abs(c_inverse_line_sup(params, v) - exact) <= 1e-14 * exact, (q, v)


def test_c_inverse_line_sup_center_value_is_two():
    for q in (2, 3, 7):
        assert c_inverse_line_sup(tree_params(q), 0.0) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Spherical functions
# ---------------------------------------------------------------------------

def test_spherical_function_normalization_and_first_value():
    rng = np.random.default_rng(5)
    for q in (2, 3):
        params = tree_params(q)
        z = random_strip_points(params, rng, 25)
        assert np.abs(spherical_function(params, z, 0) - 1.0).max() <= 1e-13
        first = spherical_function(params, z, 1)
        assert np.abs(first - spectral_eigenvalue(params, z)).max() <= 1e-12


def test_spherical_function_matches_recurrence_oracle():
    rng = np.random.default_rng(13)
    n = np.arange(41)
    for q in (2, 3, 5):
        params = tree_params(q)
        half = params.period / 2.0
        pts = list(random_strip_points(params, rng, 10))
        # exact-lattice and near-lattice points, where the two-term
        # c-function expansion cancels; one formula must serve them all
        pts += [0.0, half, 1e-7, half + 3e-7, 1e-9, 1.01e-6, 1e-5, 1e-4]
        pts += [half + 1.01e-6, half - 1.01e-6, -half - 1e-9, 1e-6 + 1e-6j]
        for z in pts:
            want = np.array(recurrence_spherical(q, z, 40))
            got = spherical_function(params, z, n)
            err = (np.abs(got - want) / np.maximum(np.abs(want), q ** (-n / 2.0))).max()
            assert err <= 1e-13, f"q={q} z={z} err={err}"


def test_spherical_function_at_lattice_points_is_the_lattice_formula():
    # at the m-th real half-period point phi is (1 + n(q-1)/(q+1)) q^{-n/2} (-1)^{nm}
    n = np.arange(41)
    for q in (2, 3, 5):
        params = tree_params(q)
        half = params.period / 2.0
        base = (1.0 + n * (q - 1.0) / (q + 1.0)) * params.qpow(-n / 2.0)
        for z, m in ((0.0, 0), (0j, 0), (half, 1), (-half, -1), (3 * half, 3)):
            want = base * (-1.0) ** (n * m)
            got = spherical_function(params, z, n)
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (q, m)


def test_spherical_function_overflows_only_with_phi():
    # far out in d, or far off the strip, phi is finite and matches the recurrence
    params = tree_params(2)
    for z, n in ((0.3 + 0.5j, 3000), (0.3 + 3j, 380)):
        want = recurrence_spherical(2, z, n)[-1]
        got = spherical_function(params, z, n)
        assert abs(got - want) <= 1e-12 * abs(want), (z, n)
    assert abs(spherical_function(params, 0.3 + 0.5j, 3000)) <= 1.0
    assert abs(spherical_function(params, 0.3 + 3j, 380)) > 1e285


def test_spherical_function_eigen_identity():
    rng = np.random.default_rng(17)
    for q in (2, 3):
        params = tree_params(q)
        z = random_strip_points(params, rng, 30)
        gamma = spectral_eigenvalue(params, z)
        d = np.arange(13)
        phi = spherical_function(params, z[:, None], d[None, :])
        lhs = (q * phi[:, 2:] + phi[:, :-2]) / (q + 1.0)
        rhs = gamma[:, None] * phi[:, 1:-1]
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_spherical_function_bounded_on_strip():
    rng = np.random.default_rng(19)
    for q in (2, 3):
        params = tree_params(q)
        tau = params.period
        s = rng.uniform(-tau / 2.0, tau / 2.0, size=40)
        v = rng.uniform(-0.5, 0.5, size=40)
        z = s + 1j * v
        d = np.arange(0, 41)
        phi = spherical_function(params, z[:, None], d[None, :])
        assert np.abs(phi).max() <= 1.0 + 1e-12


def test_spherical_function_rejects_bad_distances():
    params = tree_params(2)
    with pytest.raises(DomainError):
        spherical_function(params, 0.3, -1)
    with pytest.raises(DomainError):
        spherical_function(params, 0.3, 1.5)


# ---------------------------------------------------------------------------
# Kernels and sphere sizes
# ---------------------------------------------------------------------------

def test_sphere_sizes_growth():
    sizes = sphere_sizes(tree_params(2), 5)
    assert sizes.tolist() == [1.0, 3.0, 6.0, 12.0, 24.0, 48.0]
    sizes3 = sphere_sizes(tree_params(3), 3)
    assert sizes3.tolist() == [1.0, 4.0, 12.0, 36.0]


def test_kernel_constructors_and_trimming():
    k = ball_kernel(2, 2)
    assert k.radius == 2 and k.at(1) == 1.0 and k.at(5) == 0.0
    s = sphere_kernel(3, 2)
    assert s.values.tolist() == [0.0, 0.0, 1.0]
    # trailing zero spheres are dropped at construction, radius 0 at minimum
    raw = np.array([1.0, 0.5, 0.0, 0.0], dtype=complex)
    padded = radial_kernel(2, raw)
    assert padded.radius == 1 and padded.values.tolist() == [1.0, 0.5]
    raw[0] = 7.0
    assert padded.at(0) == 1.0  # the values are a copy
    assert radial_kernel(2, [0.0, 0.0, 0.0]).values.tolist() == [0.0]
    assert delta_kernel(2).radius == 0
    with pytest.raises(DomainError):
        radial_kernel(2, [])
    with pytest.raises(DomainError):
        k.at(-1)


def test_l1_on_tree_weights_spheres():
    k = radial_kernel(2, [1.0, -2.0])
    assert k.l1_on_tree() == pytest.approx(1.0 + 3.0 * 2.0, rel=1e-15)


def test_l1_on_tree_overflow_raises_domain_error_without_a_warning():
    # the sphere sizes overflow past radius ~1023 at q = 2; the suite turns
    # a RuntimeWarning into an error, so this also pins that none is emitted
    with pytest.raises(DomainError, match="overflows"):
        radial_kernel(2, np.ones(1100)).l1_on_tree()


# ---------------------------------------------------------------------------
# Transform pair
# ---------------------------------------------------------------------------

def test_transform_of_delta_is_constant_one():
    sym = spherical_transform(delta_kernel(2), 64)
    assert np.abs(sym.samples - 1.0).max() <= 1e-14


def test_transform_of_unit_sphere_is_scaled_eigenvalue():
    params = tree_params(3)
    sym = spherical_transform(sphere_kernel(3, 1), 64)
    want = (params.q + 1.0) * spectral_eigenvalue(params, sym.grid)
    assert np.abs(sym.samples - want).max() <= 1e-12


def test_roundtrip_recovers_random_kernels():
    rng = np.random.default_rng(23)
    worst = 0.0
    for q in (2, 3):
        for _ in range(10):
            D = int(rng.integers(0, 9))
            vals = rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
            k = radial_kernel(q, vals)
            sym = spherical_transform(k, 512)
            back = inverse_spherical_transform(sym, D)
            worst = max(worst, float(np.abs(back.values - k.values).max()))
    assert worst <= 1e-9, f"roundtrip error {worst}"


def test_inversion_weights_are_computed_once_and_read_only():
    # 1/c(-s) on the standard grid, kept per (q, n) in a bounded cache
    assert 0 < _inversion_weights.cache_info().maxsize <= 16
    for q in (2, 3, 5, 7):
        params = tree_params(q)
        for n in (64, 512, 4096):
            weights = _inversion_weights(params, n)
            assert _inversion_weights(tree_params(q), n) is weights
            assert weights.tobytes() == c_inverse(params, -torus_grid(params, n)).tobytes()
            with pytest.raises(ValueError):
                weights[0] = 0.0


def test_inverse_transform_is_the_uncached_formula_byte_for_byte():
    rng = np.random.default_rng(331)
    for q in (2, 3, 5, 7):
        for n in (64, 512):
            for D in range(10):
                vals = rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
                sym = spherical_transform(radial_kernel(q, vals), n)
                for radius in (D, D + 2):
                    got = inverse_spherical_transform(sym, radius)
                    want = uncached_inverse_transform(sym, radius)
                    # the kernel drops trailing zero spheres, so compare its window
                    assert got.values.tobytes() == want[: got.values.size].tobytes()
                    assert not want[got.values.size :].any()


def test_inverse_transform_refuses_radii_the_grid_aliases():
    # past n/2 the trapezoid sum returns the aliases of smaller distances:
    # radius 63 on 64 points gave entries near 1e-10 at d = 60..63, and a
    # radius-39 kernel came back off by 256
    short = spherical_transform(radial_kernel(2, [1.0, 0.5, 0.25, 0.125]), 64)
    with pytest.raises(DomainError, match="more than 126 points, got 64.*>= 128"):
        inverse_spherical_transform(short, 63)
    wide = spherical_transform(radial_kernel(2, np.ones(40)), 64)
    with pytest.raises(DomainError, match="more than 78 points, got 64.*>= 128"):
        inverse_spherical_transform(wide, 39)
    with pytest.raises(DomainError, match="more than 64 points, got 64"):
        inverse_spherical_transform(short, 32)
    back = inverse_spherical_transform(short, 31)
    want = np.zeros(back.values.size)
    want[:4] = [1.0, 0.5, 0.25, 0.125]
    assert np.abs(back.values - want).max() <= 1e-8  # the 64-point quadrature error


def test_grid_transform_is_the_uncached_path_byte_for_byte():
    # radii rising, falling and interleaved per (q, n), each order from an
    # empty cache, so the table is built, widened and reused
    rng = np.random.default_rng(4096)
    orders = (range(12), range(11, -1, -1), (5, 0, 9, 2, 11, 7, 1, 10, 3, 8, 4, 6))
    for order in orders:
        _grid_cosines.cache_clear()
        for q in (2, 3, 5, 7):
            for n in (64, 512, 4096):
                for D in order:
                    real = rng.normal(size=D + 1)
                    for values in (real, real + 1j * rng.normal(size=D + 1)):
                        kernel = radial_kernel(q, values)
                        got = spherical_transform(kernel, n).samples
                        assert got.tobytes() == uncached_grid_transform(kernel, n).tobytes()
                        if values is real:
                            # real kernels keep imaginary parts of exactly +0.0
                            assert not np.signbit(got.imag).any() and not got.imag.any()
    huge = radial_kernel(2, [1e308, 1e308])
    for transform in (spherical_transform, uncached_grid_transform):
        with pytest.raises(DomainError, match="spherical transform overflows"):
            transform(huge, 64)


def test_grid_cosine_table_is_computed_once_and_read_only():
    # column j of cos(outer(grid, arange(J + 1)) log q) has the same bytes
    # for every J, which is what lets one table serve every smaller radius
    assert 0 < _grid_cosines.cache_info().maxsize <= 16
    for q in (2, 3, 5, 7):
        params = tree_params(q)
        for n in (64, 512, 4096):
            grid = torus_grid(params, n)
            widest = _cosine_table(grid, 11, params.log_q)
            for J in range(12):
                middle = widest[:, 11 - J : 12 + J]
                assert _cosine_table(grid, J, params.log_q).tobytes() == middle.tobytes()
            store = _grid_cosines(params, n)
            store.columns(5)
            table = store.table
            for radius in (5, 2, 0, 4):
                # a view, not a copy: the product reads the cached table itself
                cols = store.columns(radius)
                assert cols.shape == (n, 2 * radius + 1) and cols.dtype == complex
                assert np.shares_memory(cols, table) and not cols.flags.writeable
                assert cols.tobytes() == table[:, 5 - radius : 6 + radius].tobytes()
            assert _grid_cosines(tree_params(q), n) is store and store.table is table
            assert table.real.tobytes() == widest[:, 6:17].tobytes()
            assert table.imag.tobytes() == np.zeros(table.shape).tobytes()
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
    assert _grid_cosines.cache_info().currsize <= _grid_cosines.cache_info().maxsize


def test_symbol_is_even_in_frequency():
    # Weyl invariance: the transform is even, so mirrored grid samples agree
    k = radial_kernel(2, [0.3, -1.2, 0.7])
    sym = spherical_transform(k, 128)
    mirrored = np.roll(sym.samples[::-1], 1)  # grid is -tau/2 + tau k/n
    assert np.abs(sym.samples - mirrored).max() <= 1e-12


def test_real_kernels_have_real_symbols():
    # at real z the transform is a cosine sum with real coefficients, so
    # every imaginary part is exactly +0.0, not a rounding residue
    rng = np.random.default_rng(61)
    for q in (2, 3, 5, 7):
        for D in range(12):
            k = radial_kernel(q, rng.normal(size=D + 1))
            for n in (64, 512):
                imag = spherical_transform(k, n).samples.imag
                assert np.all(imag == 0.0) and not np.signbit(imag).any(), (q, D, n)


def test_transform_at_matches_grid_sampling():
    k = radial_kernel(3, [1.0, 0.5, -0.25])
    grid = torus_grid(k.params, 64)
    direct = spherical_transform_at(k, grid)
    sym = spherical_transform(k, 64)
    assert np.abs(direct - sym.samples).max() == 0.0


def test_transform_at_overflow_names_the_imaginary_part():
    # cos(2 z log 2) at z = 1000i is about 2^2000; the kernel values are small
    with pytest.raises(DomainError, match=r"spherical transform overflows.*\|Im z\|"):
        spherical_transform_at(ball_kernel(2, 2), 1000j)


def test_transform_at_is_the_full_cosine_table_byte_for_byte():
    # the columns j < 0 are copies of the columns j > 0, which the complex
    # cosine's evenness gives bit for bit: the full table of 2J + 1 columns
    # gives the same bytes, signed zeros included, and overflows exactly
    # where it does
    rng = np.random.default_rng(384)
    for q in (2, 3, 5, 7):
        params = tree_params(q)
        for D in range(12):
            for real in (True, False):
                values = rng.normal(size=D + 1)
                if not real:
                    values = values + 1j * rng.normal(size=D + 1)
                kernel = radial_kernel(q, values)
                points = (
                    torus_grid(params, 64),
                    rng.uniform(-4.0, 4.0, size=9),
                    rng.uniform(-4.0, 4.0, size=9) + 1j * rng.uniform(-0.5, 0.5, size=9),
                    complex(rng.uniform(-4.0, 4.0), rng.uniform(-0.5, 0.5)),
                )
                for z in points:
                    got = np.asarray(spherical_transform_at(kernel, z))
                    assert got.tobytes() == cosine_matrix_transform(kernel, z).tobytes()
                for imag in (-200.0, -60.0, -20.0, 20.0, 60.0, 200.0):
                    z = rng.uniform(-4.0, 4.0, size=3) + 1j * imag
                    want = cosine_matrix_transform(kernel, z)
                    if np.isfinite(want).all():
                        assert spherical_transform_at(kernel, z).tobytes() == want.tobytes()
                    else:
                        with pytest.raises(DomainError, match="overflows"):
                            spherical_transform_at(kernel, z)


def test_torus_symbol_validates_grid_size():
    with pytest.raises(DomainError):
        TorusSymbol(tree_params(2), np.ones(100))


def test_integral_float_distances_read_as_integers():
    params = tree_params(3)
    z = np.array([0.0, 0.3, 1.1 - 0.2j])[:, None]
    want = spherical_function(params, z, np.array([0, 2, 5]))
    assert spherical_function(params, z, np.array([0.0, 2.0, 5.0])).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ball_kernel(2, -1), "ball radius must be >= 0, got -1"),
        (lambda: sphere_kernel(2, -1), "sphere radius must be >= 0, got -1"),
        (lambda: TorusSymbol(2, np.zeros((2, 64))), "symbol samples must form a 1-d array"),
        (lambda: inverse_spherical_transform(spherical_transform(ball_kernel(2, 1), 64), -1),
         "radius must be >= 0, got -1"),
        (lambda: spherical_function(tree_params(2), 0.3, 1.5), "hop distances must be integers"),
    ],
)
def test_spherical_refuses_invalid_input_with_its_message(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
