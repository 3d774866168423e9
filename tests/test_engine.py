"""Certified bounds engine: profiles, height splitting, reports, transference."""

import collections
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    affine_negative_height_bound,
    full_ball_transference_check,
    haar_identity_check,
    layered_transference_lhs,
    mp_moment,
    negative_half_opnorm_lower,
    profile_strip_constant,
    recurrence_spherical,
    row_loop_negative_height_bound,
    split_kernel,
    trapezoid_line_profile,
)
from test_golden import sweep_cases
from treeharmonics.abel import abel_forward
from treeharmonics.engine import (
    BoundsReport,
    SoundnessError,
    _plan,
    bounds_report,
    line_profile,
    negative_height_bound,
    nonnegative_height_bound,
    spectral_sup,
    symbol_norm_report,
    transference_check,
    tree_norm_lower,
    tree_norm_upper,
)
from treeharmonics.params import (
    DomainError,
    ScopeError,
    dual_exponent,
    strip_halfwidth,
    tree_params,
)
from treeharmonics.serialize import abel_to_csv, report_to_json
from treeharmonics.spherical import (
    ball_kernel,
    delta_kernel,
    radial_kernel,
    sphere_kernel,
    sphere_sizes,
    spherical_function,
    spherical_transform,
    spherical_transform_at,
)
from treeharmonics.tree import ball_geometry, opnorm_lower
from treeharmonics.zline import DICTIONARY_VERSION, ZKernel, _l1_exact, convolutor_upper


def random_kernel(rng, q, D):
    vals = rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
    return radial_kernel(q, vals)


# ---------------------------------------------------------------------------
# Line profile: reconstruction identity and decay
# ---------------------------------------------------------------------------

def test_line_profile_reconstructs_weighted_kernel():
    rng = np.random.default_rng(107)
    for q in (2, 3):
        for p in (1.0, 4.0 / 3.0, 1.5):
            k = random_kernel(rng, q, 4)
            phi = line_profile(k, p)
            scale = float(np.abs(k.values).max())
            for d in range(0, 5):
                want = k.params.qpow(d / p) * k.at(d)
                assert abs(phi.at(d) - want) <= 1e-11 * max(1.0, scale)


def test_line_profile_vanishes_beyond_support():
    rng = np.random.default_rng(109)
    k = random_kernel(rng, 2, 3)
    phi = line_profile(k, 1.5)
    L = phi.offset + phi.values.size - 1
    for d in range(4, L + 1):
        assert abs(phi.at(d)) <= 1e-10


def test_line_profile_negative_tail_is_strip_dominated():
    rng = np.random.default_rng(113)
    for p in (4.0 / 3.0, 1.5):
        k = random_kernel(rng, 2, 3)
        phi = line_profile(k, p)
        H = profile_strip_constant(k, p)
        delta = strip_halfwidth(p)
        for ell in range(phi.offset, 0):
            cap = H * k.params.qpow(2.0 * delta * ell)
            assert abs(phi.at(ell)) <= cap * (1.0 + 1e-9) + 1e-13


def test_line_profile_rejects_out_of_scope_exponents():
    k = ball_kernel(2, 1)
    for p in (2.0, 3.0, 0.5):
        with pytest.raises(DomainError):
            line_profile(k, p)


def test_line_profile_that_overflows_is_refused():
    # every shifted Abel coefficient is finite (F(1) = 1.6e308, F(3) =
    # -1.6e308 at p = 1), but phi(1) = 2 k(1) = 2e308 is not; warnings are
    # errors in the suite, so this also asserts none is raised
    k = radial_kernel(2, [0.0, 1e308, 0.0, -2e307])
    with pytest.raises(DomainError, match="line profile overflows"):
        line_profile(k, 1.0)


def test_line_profile_reconstructs_the_kernel_next_to_two():
    # the half-width L stays below D + 2 + 80 / log q as p -> 2, so no
    # exponent below 2 is refused
    rng = np.random.default_rng(229)
    for q in (2, 3):
        for p in (1.999, 1.9999, 1.99999999):
            for k in (ball_kernel(q, 2), random_kernel(rng, q, 5)):
                phi = line_profile(k, p)
                want = k.params.qpow(np.arange(k.radius + 1) / p) * k.values
                got = phi.values[-phi.offset : -phi.offset + k.radius + 1]
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (q, p)


def test_line_profile_is_the_trapezoid_sum_in_closed_form():
    # on the union of the two windows, the entries one of them does not
    # store compare with zero: both tails are below e^-40 there
    rng = np.random.default_rng(233)
    for q in (2, 3, 5, 7):
        for p in (1.0, 1.01, 1.1, 4.0 / 3.0, 1.5, 1.8, 1.9, 1.99):
            for D in range(12):
                k = random_kernel(rng, q, D)
                phi = line_profile(k, p)
                ref = trapezoid_line_profile(k, p)
                L = max(-phi.offset, -ref.offset)
                a, b = np.zeros(2 * L + 1, complex), np.zeros(2 * L + 1, complex)
                a[L + phi.offset : L - phi.offset + 1] = phi.values
                b[L + ref.offset : L - ref.offset + 1] = ref.values
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), (q, p, D)


def test_line_profile_is_zero_above_the_support_and_geometric_below():
    # exact zeros for D < d <= L: no tail is summed there.  Below -D every
    # entry is rho times the one two steps up, rho = q^{-(1 + 2 delta)}: to
    # 1e-14 of the tail's largest entry, but entry by entry only to 1e-12,
    # since each weight is one exp of an argument up to about 50 (as many
    # ulps) and some entries are sums that cancel
    rng = np.random.default_rng(239)
    for q in (2, 3, 5):
        for p in (1.0, 1.1, 1.5, 1.9, 1.99):
            for D in range(6):
                k = random_kernel(rng, q, D)
                phi = line_profile(k, p)
                L = -phi.offset
                assert phi.values.size == 2 * L + 1
                assert not phi.values[L + D + 1 :].any()
                rho = k.params.qpow(-(1.0 + 2.0 * strip_halfwidth(p)))
                below = phi.values[: L - D]  # d = -L, ..., -D - 1
                step = rho * below[2:]
                error = np.abs(below[:-2] - step)
                assert error.max() <= 1e-14 * np.abs(below).max(), (q, p, D)
                assert (error <= 1e-12 * np.abs(step)).all(), (q, p, D)


def test_profile_strip_constant_is_homogeneous():
    k = ball_kernel(3, 2)
    a = profile_strip_constant(k, 1.5)
    k2 = radial_kernel(3, 2.0 * k.values)
    assert profile_strip_constant(k2, 1.5) == pytest.approx(2.0 * a, rel=1e-15)


# ---------------------------------------------------------------------------
# Height-split upper bounds
# ---------------------------------------------------------------------------

def test_negative_height_bound_vanishes_for_point_mass():
    assert negative_height_bound(delta_kernel(2), 1.5) == 0.0
    scaled = radial_kernel(2, [7.5])
    assert negative_height_bound(scaled, 4.0 / 3.0) == 0.0


def test_negative_height_bound_is_homogeneous():
    rng = np.random.default_rng(127)
    k = random_kernel(rng, 2, 3)
    base = negative_height_bound(k, 1.5)
    doubled = negative_height_bound(radial_kernel(2, 2.0 * k.values), 1.5)
    assert doubled == pytest.approx(2.0 * base, rel=1e-13)


def test_negative_height_bound_needs_p_below_two():
    k = ball_kernel(2, 1)
    for p in (2.0, 3.0):
        with pytest.raises(DomainError):
            negative_height_bound(k, p)
    # at p = 1 the one row is q k(1) = 2, with its exact l1 norm
    assert negative_height_bound(k, 1.0) == 2.0


def test_affine_oracle_is_the_shell_series_in_closed_form():
    # alpha * M_0 + H * M_1, with the horocyclic moments M_l summed term by
    # term in high precision, alpha the l = 0 truncation bound and H the
    # strip constant.  The p = 1.9 profile spans [-L, L] with L = D + 110
    # at q = 2 and L = D + 70 at q = 3.
    rng = np.random.default_rng(131)
    for q in (2, 3):
        kernels = (ball_kernel(q, 2), sphere_kernel(q, 3), random_kernel(rng, q, 3))
        for p in (1.1, 4.0 / 3.0, 1.5, 1.9):
            eps = 2.0 * strip_halfwidth(p)
            for k in kernels:
                H = profile_strip_constant(k, p)
                upper, _ = convolutor_upper(line_profile(k, p), p)
                alpha = upper + (1.0 / (q**eps - 1.0) + 1.0) * H
                want = alpha * mp_moment(q, p, 0) + H * mp_moment(q, p, 1)
                assert affine_negative_height_bound(k, p) == pytest.approx(want, rel=1e-12)


def test_negative_height_bound_is_at_most_the_affine_oracle():
    # the exact truncations can only improve on their affine estimate
    rng = np.random.default_rng(191)
    for q in (2, 3, 5):
        for D in range(1, 7):
            for p in (1.1, 4.0 / 3.0, 1.5, 1.8):
                k = random_kernel(rng, q, D)
                exact = negative_height_bound(k, p)
                assert 0.0 < exact <= affine_negative_height_bound(k, p), (q, D, p)


def test_negative_height_bound_is_the_shell_series_in_closed_form():
    # sum_m mu_m q^{-2m/p} sum_{u > 2m} q^{u/p} k(u) in 40 digits, with
    # mu_0 = 1 and mu_m = (q - 1) q^{m-1}; for k >= 0 each row norm is its l1 norm
    rng = np.random.default_rng(199)
    for q in (2, 3, 5):
        for D in range(7):
            for p in (1.0, 1.1, 1.5, 1.9):
                k = rng.uniform(0.0, 1.0, size=D + 1)
                with mp.workdps(40):
                    pp = mp.mpf(p)
                    want = sum(
                        (1 if m == 0 else (q - 1) * mp.mpf(q) ** (m - 1))
                        * mp.mpf(q) ** (-2 * m / pp)
                        * sum(mp.mpf(q) ** (u / pp) * mp.mpf(k[u]) for u in range(2 * m + 1, D + 1))
                        for m in range((D + 1) // 2)
                    )
                got = negative_height_bound(radial_kernel(q, k), p)
                assert got == pytest.approx(float(want), rel=1e-14, abs=0.0), (q, D, p)


def test_negative_height_rows_of_at_most_two_entries_contribute_their_l1_norm():
    # every row norm is convolutor_upper's, which gives a row of at most two
    # nonzero entries its exact l1 norm at every p
    rng = np.random.default_rng(211)
    for q in (2, 3, 5):
        params = tree_params(q)
        for p in (1.1, 4.0 / 3.0, 1.5, 1.9):
            for D, zero in ((1, None), (2, None), (3, 2), (3, None)):
                vals = rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
                if zero is not None:
                    vals[zero] = 0.0
                u = np.arange(1, D + 1)
                row0 = ZKernel(params, 1, vals[u] * params.qpow(u / p))
                want, _ = convolutor_upper(row0, p)
                if np.count_nonzero(row0.values) <= 2:
                    assert want == row0.l1()
                if D == 3:
                    # shell 1 has mass q - 1 and the one entry q^{3/p} k(3)
                    row1 = ZKernel(params, 3, vals[3:] * params.qpow(3 / p))
                    upper1, _ = convolutor_upper(row1, p)
                    assert upper1 == row1.l1()
                    want += (q - 1) * params.qpow(-2.0 / p) * upper1
                got = negative_height_bound(radial_kernel(q, vals), p)
                assert got == want, (q, p, D, zero)


def step_one_fuzz_cases():
    """``(kernel, p)``: 3,000 seeded draws for the shell series.

    q in {2, 3, 5, 7} and D from 0 to 8; real, complex, one-sign and
    zero-holed kernels, whose later rows can have one or two nonzero
    entries; p at and near 1 and through (1, 2).  The values, at most 1 in
    modulus, are scaled by 10^s with ``|s|`` below 5, from 5 up to 300, or
    ``s`` from 300 up to 308, where a row can overflow.
    """
    rng = np.random.default_rng(59)
    exponents = (1.0, 1.0 + 1e-9, 1.1, 4.0 / 3.0, 1.5, 1.9)
    for i in range(3000):
        q = (2, 3, 5, 7)[int(rng.integers(4))]
        D = int(rng.integers(9))
        p = exponents[int(rng.integers(len(exponents)))]
        v = rng.normal(size=D + 1)
        kind = i % 4
        if kind == 1 or (kind == 3 and i % 8 == 7):
            v = v + 1j * rng.normal(size=D + 1)
        if kind == 2:
            v = np.abs(v) * (-1.0) ** (i // 4)
        if kind == 3:
            v[rng.random(D + 1) < 0.4] = 0.0
        v /= max(float(np.abs(v).max()), 1.0)
        band = i % 3
        if band == 0:
            s = rng.uniform(-5.0, 5.0)
        elif band == 1:
            s = rng.choice((-1.0, 1.0)) * rng.uniform(5.0, 300.0)
        else:
            s = rng.uniform(300.0, 308.0)
        yield radial_kernel(q, v * 10.0**s), p


def test_negative_height_bound_is_the_row_loop_bit_for_bit():
    # the one-pass series against the row loop that sends every row to
    # convolutor_upper: the same bytes, inf where a row overflows
    infinite = suffix_exact = 0
    for kernel, p in step_one_fuzz_cases():
        want = row_loop_negative_height_bound(kernel, p)
        assert repr(negative_height_bound(kernel, p)) == repr(want), (kernel.values, p)
        infinite += want == math.inf
        # a signed row 0 with a later row of three or more entries that is
        # exact; the scale q^{u/p} > 0 keeps every exact case
        row0 = kernel.values[1:]
        rows = [row0[2 * m :] for m in range((kernel.radius + 1) // 2)]
        suffix_exact += bool(rows) and _l1_exact(rows[0], p) is None and any(
            row.size >= 3 and _l1_exact(row, p) for row in rows[1:]
        )
    assert infinite >= 100 and suffix_exact >= 100, (infinite, suffix_exact)


def test_step_one_sends_only_its_signed_rows_to_convolutor_upper(monkeypatch):
    # counted calls, not time: a one-sign kernel's rows are all l1-exact; a
    # signed D = 3 kernel sends its three-term row 0, and row 1, one entry,
    # is exact; and the weights of a (q, p, D) are computed once
    import treeharmonics.engine as engine

    sent = []

    def counted(F, p):
        sent.append(F)
        return convolutor_upper(F, p)

    monkeypatch.setattr(engine, "convolutor_upper", counted)
    rng = np.random.default_rng(67)
    for q in (2, 3, 5):
        for D in range(1, 9):
            for values in (rng.uniform(0.1, 1.0, D + 1), -rng.uniform(0.1, 1.0, D + 1)):
                for p in (1.1, 1.5, 1.9):
                    negative_height_bound(radial_kernel(q, values), p)
    assert sent == []
    for q in (2, 3, 5):
        for p in (4.0 / 3.0, 1.5):
            kernel = random_kernel(rng, q, 3)
            sent.clear()
            series = negative_height_bound(kernel, p)
            assert [(F.offset, F.values.size) for F in sent] == [(1, 3)], (q, p)
            assert repr(series) == repr(row_loop_negative_height_bound(kernel, p)), (q, p)
    # kernel-suite's 12 geometries, and again: every second call is a hit
    geometries = [(q, p, D) for q in (2, 3) for p in (4.0 / 3.0, 1.5) for D in (1, 2, 3)]
    for q, p, D in geometries:
        negative_height_bound(random_kernel(rng, q, D), p)
    before = engine._shell_geometry.cache_info()
    for q, p, D in geometries:
        negative_height_bound(random_kernel(rng, q, D), p)
    after = engine._shell_geometry.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (12, 0)
    _, scale = engine._shell_geometry(tree_params(2), 1.5, 3)
    assert not scale.flags.writeable


def test_negative_half_ascent_never_exceeds_the_shell_series():
    # a duality ascent over every vertex function of an explicit ball, on
    # the negative-height half alone, comes within 12% of the series
    rng = np.random.default_rng(193)
    cases = (
        (2, 10, ball_kernel(2, 2), 1.5),
        (2, 10, random_kernel(rng, 2, 3), 4.0 / 3.0),
        (3, 7, sphere_kernel(3, 3), 4.0 / 3.0),
        (3, 7, radial_kernel(3, rng.uniform(0.1, 1.0, size=4)), 1.5),
    )
    for q, R, k, p in cases:
        lower = negative_half_opnorm_lower(ball_geometry(q, R), k, p, iters=30)
        series = negative_height_bound(k, p)
        assert 0.88 * series <= lower <= series * (1.0 + 1e-12), (q, R, p)


def test_line_profile_builds_no_dense_phase_matrix():
    # L = 112 at q = 2, p = 1.9: the closed form allocates a few vectors of
    # about 3L entries, and no (2L + 1) x n phase matrix of a frequency grid
    tracemalloc.start()
    try:
        line_profile(ball_kernel(2, 2), 1.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_nonnegative_height_bound_frozen_sphere_value():
    # Abel of |1_{S_1}| is sqrt(q) at j = +-1; the weighted sum at p = 3/2
    # (delta = 1/6, q = 2) collapses to 2^{1/2 - 1/6} = 2^{1/3}
    got = nonnegative_height_bound(sphere_kernel(2, 1), 1.5)
    assert got == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)


def test_nonnegative_height_bound_monotone_in_p():
    k = ball_kernel(2, 2)
    values = [nonnegative_height_bound(k, p) for p in (1.05, 1.3, 1.5, 1.7, 1.95)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_spectral_sup_frozen_unit_ball_value():
    # symbol sup of 1_{B_1} on the tree of degree 2: 1 + 2 sqrt(2)
    got = spectral_sup(ball_kernel(2, 1))
    assert got == pytest.approx(1.0 + 2.0 * math.sqrt(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Two-sided tree norms
# ---------------------------------------------------------------------------

def test_tree_norm_upper_is_l1_at_endpoints():
    k = ball_kernel(2, 1)
    for p in (1.0, math.inf):
        total, s1, s2 = tree_norm_upper(k, p)
        assert total == pytest.approx(k.l1_on_tree(), rel=1e-15)
        assert s1 is None and s2 is None


def test_tree_norm_upper_refuses_p_two():
    with pytest.raises(ScopeError) as err:
        tree_norm_upper(ball_kernel(2, 1), 2.0)
    assert "spectral_sup" in str(err.value)


def test_tree_norm_upper_duality_is_bit_identical():
    rng = np.random.default_rng(131)
    k = random_kernel(rng, 3, 2)
    for p, pdual in ((3.0, 1.5), (4.0, 4.0 / 3.0)):
        a = tree_norm_upper(k, p)
        b = tree_norm_upper(k, pdual)
        assert a == b


def test_tree_norm_upper_that_overflows_is_refused():
    # both halves are finite, 1.6e308 and 1.3e308, but their sum overflows
    k = radial_kernel(2, [0.0, 1e308])
    with pytest.raises(DomainError, match="overflows float64"):
        tree_norm_upper(k, 1.5)
    # here the row q^{2/p} k(2) of step 1 overflows, and the error names it
    with pytest.raises(DomainError, match="overflow"):
        tree_norm_upper(radial_kernel(2, [0.0, 0.0, 1e308]), 1.5)


def test_negative_height_row_with_an_overflowing_l1_norm_makes_the_series_infinite():
    # both row entries, 9.5e307 and 1.5e308, are finite, but their l1 norm overflows
    k = radial_kernel(2, [0.0, 6e307, 6e307])
    assert negative_height_bound(k, 1.5) == math.inf
    with pytest.raises(DomainError, match="height-split bound overflows"):
        tree_norm_upper(k, 1.5)


def test_tree_norm_upper_is_herz_norm_for_nonnegative_kernels():
    # for k >= 0 the L^p norm is |FT k(i delta(p))| (Herz); the split attains it.
    # The reference is the phi-sum, not the Abel sequence the split itself sums
    rng = np.random.default_rng(197)
    for q in (2, 3, 5):
        for D in range(7):
            for p in (1.1, 4.0 / 3.0, 1.5, 1.8, 1.9999, 2.0001, 3.0, 7.0):
                k = radial_kernel(q, rng.uniform(0.0, 1.0, size=D + 1))
                total, _, _ = tree_norm_upper(k, p)
                phi = spherical_function(k.params, 1j * strip_halfwidth(p), np.arange(D + 1))
                herz = abs(phi @ (sphere_sizes(k.params, D) * k.values))
                assert total == pytest.approx(herz, rel=1e-13), (q, D, p)


def test_tree_norm_upper_splits_add_up():
    k = ball_kernel(2, 2)
    total, s1, s2 = tree_norm_upper(k, 1.5)
    assert total == pytest.approx(s1 + s2, rel=1e-15)
    assert s1 > 0.0 and s2 > 0.0


def test_tree_norm_lower_returns_method_and_respects_radius():
    k = ball_kernel(2, 1)
    val, method = tree_norm_lower(k, 1.5, radius=4)
    assert val > 0.0 and isinstance(method, str)
    with pytest.raises(DomainError):
        tree_norm_lower(k, 1.5, radius=1)


def test_tree_norm_sandwich_on_small_examples():
    rng = np.random.default_rng(137)
    for q in (2, 3):
        for p in (1.0, 1.5, 3.0):
            k = random_kernel(rng, q, 2)
            lower, _ = tree_norm_lower(k, p, radius=5)
            total, _, _ = tree_norm_upper(k, p)
            assert lower <= total * (1.0 + 1e-10)


def herz_gamma(kernel):
    """The relative rounding-down of the exact:herz route, ``4 (D (1 + ln q) + 3) 2^-53``."""
    return 4.0 * (kernel.radius * (1.0 + math.log(kernel.params.q)) + 3.0) * 2.0**-53


def test_tree_norm_lower_is_clamped_to_the_l1_norm():
    # next to p = 1 the best trials round one ulp above the exact norm, 3.4
    # and 4.0; the clamp guards the compression, and these one-sign kernels
    # take Herz's norm, rounded down, instead
    p = 1.0 + 2.0**-52
    for vals, l1 in (([1.0, 0.6], 3.4), ([0.8, 0.8], 4.0)):
        kernel = radial_kernel(3, vals)
        assert opnorm_lower(kernel, p, 4)[0] > l1
        value, method = tree_norm_lower(kernel, p, 4)
        assert method == "exact:herz"
        assert l1 * (1.0 - herz_gamma(kernel)) <= value <= l1
    rep = bounds_report(delta_kernel(2), 1.9)
    assert rep.compression_lower == rep.total_upper == 1.0
    # an l1 norm that overflows clamps nothing and raises nothing
    value, _ = tree_norm_lower(radial_kernel(2, [0.0] * 10 + [1e306]), 1.5, 13)
    assert 0.0 <= value < math.inf


# the sweep's one-sign kernels of radius D >= 1, and its signed ones
ONE_SIGN = ("ball1", "ball2", "sphere3")
SIGNED = ("real3", "complex3", "parity3")


def interior_sweep_cases(kernels):
    """``(name, kernel, p, R)`` for the sweep cases of the named kernels with ``1 < p < inf``."""
    cases = [
        case
        for case in sweep_cases()
        if case[0].split()[1] in kernels and 1.0 < case[2] < math.inf
    ]
    assert len(cases) == 45 * len(kernels)
    return cases


def test_herz_route_is_never_below_the_compression():
    for name, kernel, p, R in interior_sweep_cases(ONE_SIGN):
        value, method = tree_norm_lower(kernel, p, R)
        assert method == "exact:herz", name
        assert opnorm_lower(kernel, p, R)[0] <= value <= tree_norm_upper(kernel, p)[0], name


def test_one_sign_reports_run_no_compression(monkeypatch):
    # a guard on the route, with no timing: the compression is not called
    # for a one-sign kernel, and still is for every other
    import treeharmonics.engine as engine

    class Called(Exception):
        pass

    def refuse(kernel, p, radius):
        raise Called

    monkeypatch.setattr(engine, "opnorm_lower", refuse)
    for name, kernel, p, R in interior_sweep_cases(ONE_SIGN):
        bounds_report(kernel, p, radius=R)
    for name, kernel, p, R in interior_sweep_cases(SIGNED):
        with pytest.raises(Called):
            bounds_report(kernel, p, radius=R)


def test_a_report_transforms_a_one_sign_kernel_once(monkeypatch):
    # a guard on the shared plan, with no timing: one plan and one run of
    # each stage, and only a signed or complex kernel transforms |k| as well.
    # A one-sign kernel tests its sign in the plan, on row 0 of the shell
    # series and in the symbol interval; the delta has no row 0.  Every
    # array a report builds is checked as it is built, so no report runs
    # ZKernel.__post_init__.  A call of ZKernel.l1 that finds no sum kept on
    # its kernel takes one: every report sums F once, and no kernel twice;
    # a row of the shell series is built with its sum already kept
    import treeharmonics.engine as engine
    import treeharmonics.zline as zline

    calls = collections.Counter()
    summed = []
    post_init, l1 = zline.ZKernel.__post_init__, zline.ZKernel.l1

    def checked(kernel):
        calls["__post_init__"] += 1
        post_init(kernel)

    def summing(kernel):
        if "_l1" not in vars(kernel):
            summed.append(kernel)
        return l1(kernel)

    monkeypatch.setattr(zline.ZKernel, "__post_init__", checked)
    monkeypatch.setattr(zline.ZKernel, "l1", summing)

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    stages = ("tree_norm_upper", "tree_norm_lower", "symbol_norm_report")
    for name in ("abel_forward", "_plan", *stages):
        monkeypatch.setattr(engine, name, counted(engine, name))
    one_sign = counted(zline, "_one_sign")
    for module in (engine, zline):
        monkeypatch.setattr(module, "_one_sign", one_sign)
    for kernels, transforms, signs in (
        (("delta",), 1, 2), (ONE_SIGN, 1, 3), (SIGNED, 2, None)
    ):
        for name, kernel, p, R in interior_sweep_cases(kernels):
            calls.clear()
            summed.clear()
            bounds_report(kernel, p, radius=R)
            if signs is None:
                del calls["_one_sign"]  # every signed row of the shell series tests its own
            else:
                assert calls.pop("_one_sign") == signs, name
            assert calls == {"abel_forward": transforms, "_plan": 1, **dict.fromkeys(stages, 1)}, name
            assert len(summed) == 1, name


def assert_stages_alone_give_the_report(kernel, p, R, name):
    """Each stage, making its own plan, gives the bytes of its field of the report."""
    rep = bounds_report(kernel, p, radius=R)
    upper = tree_norm_upper(kernel, p)
    assert repr(upper) == repr((rep.total_upper, rep.step1_upper, rep.step2_upper)), name
    assert repr(tree_norm_lower(kernel, p, R)[0]) == repr(rep.compression_lower), name
    interval, weyl = symbol_norm_report(kernel, p)
    got = (interval.lower, interval.upper, weyl)
    assert repr(got) == repr((rep.symbol_lower, rep.symbol_upper, rep.weyl_residual)), name


def test_stages_alone_give_the_report_fields_on_the_sweep():
    for name, kernel, p, R in sweep_cases():
        assert_stages_alone_give_the_report(kernel, p, R, name)


def test_exact_routes_at_extreme_scales_give_the_report_or_refuse_it_finitely():
    # the l1 sum kept on F and the arrays built without a second check, at
    # the edges of float64: each stage alone gives its field of the report,
    # or the report raises DomainError and no stage returns a NaN or an
    # infinity in its place.  Real one-sign kernels of both signs, kernels
    # with one complex value and radius-0 kernels
    rng = np.random.default_rng(32)
    refused = 0
    for case in range(500):
        q = int(rng.choice([2, 3, 7, 1000]))
        kind = case % 4
        D = 0 if kind == 3 else int(rng.integers(0, 9))
        scale = float(rng.choice([1e150, 1e-150, 1e300, 1e-300]))
        p = float(rng.choice([1.0 + 1e-9, 1.1, 4.0 / 3.0, 3.0, 1e6]))
        if kind <= 1:
            vals = rng.random(D + 1)
            vals[rng.random(D + 1) < 0.3] = 0.0
            vals[-1] = 0.5 + rng.random()
            vals *= (1.0, -1.0)[kind] * scale
        else:
            vals = np.zeros(D + 1, dtype=complex)
            vals[-1] = complex(rng.normal(), rng.normal()) * scale
        kernel = radial_kernel(q, vals)
        R = D + 3
        name = f"case {case}: q={q} D={D} scale={scale:g} p={p!r} k[D]={vals[-1]!r}"
        try:
            bounds_report(kernel, p, radius=R)
        except DomainError:
            refused += 1

            def symbol_fields():
                interval, weyl = symbol_norm_report(kernel, p)
                return interval.lower, interval.upper, weyl

            stages = (
                lambda: tree_norm_upper(kernel, p),  # the steps are None at split exponent 1
                lambda: tree_norm_lower(kernel, p, R)[:1],
                symbol_fields,
            )
            for stage in stages:
                try:
                    values = [v for v in stage() if v is not None]
                except DomainError:
                    continue
                assert values and all(math.isfinite(v) for v in values), name
            continue
        assert_stages_alone_give_the_report(kernel, p, R, name)
    assert 0 < refused < 100, refused


@pytest.mark.parametrize(
    "q, D, value, p",
    [
        # the ascent's third iterate once reported 5.16e-72 against ||F||_1
        (2, 2, 3.2737537051835214e-73 + 9.306060415761235e-73j, 3.0),
        # the delta's ratio ||F||_p once came out above ||F||_1
        (5, 4, 2.0861476732951788e-297 + 1.4682897120218716e-297j, 1.1),
    ],
)
def test_a_tiny_kernel_reports_no_ratio_from_subnormal_power_sums(q, D, value, p):
    # the symbol interval's F has several entries of one phase and is not
    # exact; power sums of its tiny trials below 2**-1000 have subnormal
    # terms, whose rounding inflated a lower end above ||F||_1
    rep = bounds_report(radial_kernel(q, [0] * D + [value]), p)
    assert 0.0 < rep.symbol_lower <= rep.symbol_upper
    assert rep.compression_lower <= rep.total_upper


def test_tiny_kernels_report_soundly():
    # complex kernels and kernels with one complex value at scales from
    # 1e-300 to 1e-40, where the trials' power sums reach the subnormals
    rng = np.random.default_rng(3)
    for case in range(600):
        q = int(rng.choice([2, 3, 5]))
        D = int(rng.integers(1, 7))
        p = float(rng.choice([1.1, 1.5, 3.0, 7.0]))
        scale = 10.0 ** rng.uniform(-300, -40)
        if rng.random() < 0.5:
            vals = np.zeros(D + 1, dtype=complex)
            vals[D] = complex(*rng.normal(size=2))
        else:
            vals = rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
        try:
            bounds_report(radial_kernel(q, vals * scale), p)
        except SoundnessError as err:
            pytest.fail(f"case {case}: q={q} D={D} p={p} scale={scale:g}: {err}")


def test_a_real_one_sign_kernel_shares_its_abel_sequence_with_the_nonnegative_half():
    # Abel |k| = |Abel k| bit for bit: the transform takes the same steps on
    # k and -k with every sign flipped, signed zeros and extreme scales included
    rng = np.random.default_rng(29)
    for case in range(1000):
        q = int(rng.choice([2, 3, 5, 7, 1000]))
        D = int(rng.integers(0, 12))
        vals = rng.random(D + 1) * 10.0 ** float(rng.integers(-300, 300))
        vals[rng.random(D + 1) < 0.3] = (0.0, -0.0)[case % 2]
        vals[-1] = 1.0
        kernel = radial_kernel(q, (1.0, -1.0)[case % 3 % 2] * vals)
        seq = abel_forward(kernel)
        absk = radial_kernel(q, np.abs(kernel.values))
        mirror = abel_forward(absk)
        assert np.abs(seq.values.real).tobytes() == mirror.values.real.tobytes(), case
        p = float(rng.uniform(1.01, 1.99))
        plan = replace(_plan(kernel, p), abel=(seq, None))
        assert plan.herz and not np.count_nonzero(kernel.values.imag), case
        shared = nonnegative_height_bound(kernel, p, plan=plan)
        assert repr(shared) == repr(nonnegative_height_bound(kernel, p)), case
        assert repr(shared) == repr(nonnegative_height_bound(absk, p)), case


@pytest.mark.parametrize("values", [[0, 0, 2.5j], [0, 0, 0, 0.3 - 0.7j]])
def test_a_kernel_with_one_complex_value_is_one_sign_for_herz_but_not_for_the_abel_sum(values):
    # one nonzero value carries one phase, so Herz's norm is exact; but
    # Abel |k| is not |Abel k| of a complex k: |Re seq| is 0 for an imaginary
    # one, and |seq| misses Abel |k| in the last bits
    for q in (2, 3, 7):
        kernel = radial_kernel(q, values)
        absk = radial_kernel(q, np.abs(kernel.values))
        for p in (1.1, 1.5, 3.0):
            pe = p if p < 2.0 else dual_exponent(p)
            plan = _plan(kernel, p)
            assert plan.herz and np.count_nonzero(kernel.values.imag)
            step2 = nonnegative_height_bound(kernel, pe)
            assert repr(step2) == repr(nonnegative_height_bound(absk, pe)), (q, p)
            # not real, so the Abel sum reads no seq from the plan
            unread = replace(plan, abel=(None, None))
            assert repr(nonnegative_height_bound(kernel, pe, plan=unread)) == repr(step2), (q, p)
            assert repr(step2) == repr(bounds_report(kernel, p).step2_upper), (q, p)
            assert tree_norm_lower(kernel, p)[1] == "exact:herz", (q, p)
            assert_stages_alone_give_the_report(kernel, p, kernel.radius + 3, (q, p))


@pytest.mark.parametrize("p", [1e14, 1e15])
def test_compression_lower_next_to_p_inf_is_herz_norm(p):
    # the split exponent is not 1 here, and the compression's trials
    # collapsed to 1.000000000000023 and 1.0000000000000022 against 10
    rep = bounds_report(ball_kernel(2, 2), p)
    assert tree_norm_lower(ball_kernel(2, 2), p)[1] == "exact:herz"
    assert rep.compression_lower == pytest.approx(rep.total_upper, rel=1e-12)
    assert rep.compression_lower < rep.total_upper < 10.0


def test_tree_norm_lower_is_the_l1_norm_where_the_split_exponent_is_one():
    # p = 1e16 and 1e300 have the dual exponent 1.0; the compression's
    # trials fell short there, at 1.0000000000000002 and 1.0 for ball2
    for p in (1.0, 1e16, 1e300, math.inf):
        rep = bounds_report(ball_kernel(2, 2), p)
        assert rep.compression_lower == rep.total_upper == 10.0, p
    # sphere3 at q = 5 got 5.0 from the trials at R = D + 1
    rep = bounds_report(sphere_kernel(5, 3), math.inf, radius=4)
    assert rep.compression_lower == rep.total_upper == 150.0
    rng = np.random.default_rng(83)
    kernels = [delta_kernel(3), radial_kernel(3, [-2.5j])]
    kernels += [random_kernel(rng, q, D) for q in (2, 3, 5) for D in (1, 3)]
    for kernel in kernels:
        D = kernel.radius
        for p in (1.0, math.inf):
            assert tree_norm_lower(kernel, p, D + 1) == (kernel.l1_on_tree(), "exact:l1")
            with pytest.raises(DomainError):
                tree_norm_lower(kernel, p, D)
        # at D = 0 the kernel is a multiple of the identity at every p
        if D == 0:
            for p in (1.1, 1.5, 3.0):
                assert tree_norm_lower(kernel, p) == (kernel.l1_on_tree(), "exact:l1")


def test_tree_norm_equality_at_p_one():
    k = ball_kernel(3, 2)
    lower, _ = tree_norm_lower(k, 1.0, radius=3)
    total, _, _ = tree_norm_upper(k, 1.0)
    assert lower == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# Symbol-side report
# ---------------------------------------------------------------------------

def test_symbol_norm_report_unit_sphere_at_p_one():
    for q in (2, 3):
        interval, residual = symbol_norm_report(sphere_kernel(q, 1), 1.0)
        assert interval.lower == pytest.approx(q + 1.0, rel=1e-12)
        assert interval.upper == pytest.approx(q + 1.0, rel=1e-12)
        assert residual == 0.0


def test_symbol_norm_report_of_a_two_entry_shifted_kernel_is_exact():
    # the Abel sequence of [0, i] is nonzero at -1 and 1 only
    k = radial_kernel(2, [0.0, 1j])
    interval, residual = symbol_norm_report(k, 1.5)
    l1 = abel_forward(k).shifted(strip_halfwidth(1.5)).l1()
    assert interval.lower == interval.upper == l1 == 2.8473221018630723
    assert residual == 0.0


def test_symbol_norm_report_refuses_p_two():
    with pytest.raises(ScopeError):
        symbol_norm_report(ball_kernel(2, 1), 2.0)


def test_symbol_norm_report_brackets_are_ordered():
    rng = np.random.default_rng(139)
    for p in (1.0, 4.0 / 3.0, 1.5, 3.0, 4.0):
        k = random_kernel(rng, 2, 3)
        interval, _ = symbol_norm_report(k, p)
        assert 0.0 <= interval.lower <= interval.upper + 1e-12


# ---------------------------------------------------------------------------
# Horocyclic splitting
# ---------------------------------------------------------------------------

def test_split_rows_reproduce_kernel_values():
    rng = np.random.default_rng(149)
    k = random_kernel(rng, 2, 3)
    plus, minus = split_kernel(k, 1.5)
    assert plus.sign == 1 and minus.sign == -1
    assert plus.max_shell == 3 and minus.max_shell == 1
    for m in range(0, plus.max_shell + 1):
        row = plus.row(m)
        for j in range(0, 4):
            d = max(2 * m - j, j)
            want = k.at(d) if d <= 3 else 0.0
            assert row.at(j) == pytest.approx(want, abs=1e-15)


def test_split_minus_rows_match_line_profile():
    rng = np.random.default_rng(151)
    for p in (4.0 / 3.0, 1.5):
        k = random_kernel(rng, 2, 3)
        plus, minus = split_kernel(k, p)
        phi = line_profile(k, p)
        params = k.params
        for m in range(0, minus.max_shell + 1):
            row = minus.row(m)
            for j in range(2 * m - 3, 0):
                want = params.qpow(j / p) * params.qpow(-2.0 * m / p) * phi.at(2 * m - j)
                assert abs(row.at(j) - want) <= 1e-8


def test_split_minus_rows_are_strip_dominated():
    rng = np.random.default_rng(157)
    p = 1.5
    k = random_kernel(rng, 2, 3)
    _, minus = split_kernel(k, p)
    H = profile_strip_constant(k, p)
    params = k.params
    for m in range(0, minus.max_shell + 1):
        row = minus.row(m)
        for j in range(2 * m - 3, 0):
            cap = H * params.qpow(j / p) * params.qpow(-2.0 * m / p)
            assert abs(row.at(j)) <= cap * (1.0 + 1e-9) + 1e-13


def test_split_empty_minus_rows_are_zero():
    plus, minus = split_kernel(delta_kernel(2), 1.5)
    assert minus.max_shell == -1
    row = minus.row(0)
    assert row.values.tolist() == [0.0]


def test_split_rejects_p_at_least_two():
    for p in (2.0, 3.0):
        with pytest.raises(DomainError):
            split_kernel(ball_kernel(2, 1), p)


def test_haar_identity_check_is_tiny():
    rng = np.random.default_rng(163)
    for q in (2, 3):
        for _ in range(5):
            k = random_kernel(rng, q, int(rng.integers(0, 4)))
            plus, minus = split_kernel(k, 1.5)
            assert haar_identity_check(plus, minus) <= 1e-10


def test_haar_identity_check_guards_mismatched_halves():
    plus, _ = split_kernel(ball_kernel(2, 1), 1.5)
    _, other_minus = split_kernel(ball_kernel(2, 2), 1.5)
    with pytest.raises(DomainError):
        haar_identity_check(plus, other_minus)
    with pytest.raises(DomainError):
        haar_identity_check(plus, plus)


# ---------------------------------------------------------------------------
# Transference
# ---------------------------------------------------------------------------

def test_transference_check_passes_on_seeded_instances():
    rng = np.random.default_rng(167)
    for _ in range(10):
        q = int(rng.choice([2, 3]))
        D = int(rng.integers(0, 3))
        R = D + int(rng.integers(2, 5))
        ball = ball_geometry(q, R)
        kernel = random_kernel(rng, q, D)
        window = int(ball.level_start[R - D + 1])
        f = np.zeros(ball.size, dtype=complex)
        f[:window] = rng.normal(size=window) + 1j * rng.normal(size=window)
        rec = transference_check(kernel, ball, f, 1.5)
        assert rec["ok"]
        assert rec["lhs"] <= rec["rhs"] + 1e-12 * max(1.0, rec["rhs"])
        assert type(rec["lhs"]) is float and type(rec["rhs"]) is float


def test_transference_check_matches_the_per_height_loop():
    rng = np.random.default_rng(181)
    # q = 5 stops at R = 7 (117k vertices); R = 9 has 2.9M and costs seconds per instance
    cases = [
        (q, D, R)
        for q in (2, 3, 5)
        for D in range(5)
        for R in range(D, min(D + 5, 7 if q == 5 else D + 5) + 1)
    ]
    # D = 5, 6 are the first radii whose walks descend twice (C^2 f)
    cases += [(q, D, R) for q in (2, 3) for D in (5, 6) for R in range(D, D + 3)]
    for q, D, R in cases:
        ball = ball_geometry(q, R)
        for imag in (0.0, 1.0):
            kernel = random_kernel(rng, q, D)
            f = rng.normal(size=ball.size) + imag * 1j * rng.normal(size=ball.size)
            f[ball.depth > R - D] = 0.0
            rec = transference_check(kernel, ball, f, 1.5)
            want = layered_transference_lhs(kernel, ball, f, 1.5)
            assert rec["lhs"] == pytest.approx(want, rel=1e-14, abs=0.0), (q, D, R, imag)
            rhs = rec["rhs"]
            assert rec["ok"] is bool(want <= rhs + 1e-12 * max(1.0, rhs))


def test_transference_check_keeps_its_pinned_bytes():
    # repr of (lhs, rhs, ok), so that a change of evaluation order that moves
    # a last bit fails here: kernel-suite's balls, radii and exponents, with
    # f as dense as the window allows (D = 0 has no negative-height half)
    pinned = {
        (2, 0, 4.0 / 3.0): "(0.0, 0.0, True)",
        (2, 0, 1.5): "(0.0, 0.0, True)",
        (2, 1, 4.0 / 3.0): "(106.07257916194567, 106.07257916194564, True)",
        (2, 1, 1.5): "(142.44769376113135, 142.44769376113135, True)",
        (2, 2, 4.0 / 3.0): "(210.1831640907563, 256.41259081236296, True)",
        (2, 2, 1.5): "(180.30306413454852, 230.58250508148743, True)",
        (2, 3, 4.0 / 3.0): "(413.43563896486626, 646.4771352306816, True)",
        (2, 3, 1.5): "(267.8120644255993, 417.07321562265184, True)",
        (3, 0, 4.0 / 3.0): "(0.0, 0.0, True)",
        (3, 0, 1.5): "(0.0, 0.0, True)",
        (3, 1, 4.0 / 3.0): "(3522.2863582375903, 3522.28635823759, True)",
        (3, 1, 1.5): "(944.6188846532447, 944.6188846532448, True)",
        (3, 2, 4.0 / 3.0): "(1806.4852262721233, 2083.520240283407, True)",
        (3, 2, 1.5): "(1495.9743454820225, 1882.6100126208341, True)",
        (3, 3, 4.0 / 3.0): "(2470.2166362529665, 3805.6416882470567, True)",
        (3, 3, 1.5): "(1641.1731251745177, 2576.1019187083593, True)",
    }
    rng = np.random.default_rng(20)
    for q in (2, 3):
        ball = ball_geometry(q, 8)
        for D in range(4):
            for p in (4.0 / 3.0, 1.5):
                kernel = random_kernel(rng, q, D)
                f = rng.normal(size=ball.size) + 1j * rng.normal(size=ball.size)
                f[ball.depth > 8 - D] = 0.0
                rec = transference_check(kernel, ball, f, p)
                got = repr((rec["lhs"], rec["rhs"], rec["ok"]))
                assert got == pinned[q, D, p], (q, D, p)


def test_transference_check_on_the_support_is_the_full_ball_walk_byte_for_byte():
    # each step of the walk runs on the prefix its vectors can be nonzero
    # on, each norm raises only the moduli where its vector can be nonzero,
    # and D = 0 takes no walk: the dict must be the whole-ball walk's to the
    # last bit (compared by repr), with window 0 (R = D), real and complex
    # f, f with zeros inside the window, and at q = 2 the three down-sums of
    # D = 7 and 8, each C^b f grown from B_{window+b-1}, all covered
    rng = np.random.default_rng(401)
    for q in (2, 3, 5):
        for D in range(9 if q == 2 else 7):
            # q = 5 stops at R = 7 (117k vertices)
            for R in range(D, min(D + 4, 7 if q == 5 else D + 4) + 1):
                ball = ball_geometry(q, R)
                for imag in (0.0, 1.0):
                    kernel = random_kernel(rng, q, D)
                    f = rng.normal(size=ball.size) + imag * 1j * rng.normal(size=ball.size)
                    f[ball.depth > R - D] = 0.0
                    if imag:
                        f[rng.random(ball.size) < 0.3] = 0.0
                    for p in (1.0, 4.0 / 3.0, 1.5, 1.99):
                        got = transference_check(kernel, ball, f, p)
                        want = full_ball_transference_check(kernel, ball, f, p)
                        assert repr(got) == repr(want), (q, D, R, imag, p)


def test_transference_check_raises_the_full_ball_walks_errors():
    # the same DomainError, message included, for a NaN or inf in f, inside
    # the window or beyond it, and for a kernel whose walk overflows
    ball = ball_geometry(3, 5)
    kernel = radial_kernel(3, [1.0, -2.0, 0.5, 3.0])
    huge = radial_kernel(3, [1.0, 1e308, 1e308, 1e308])
    window = int(ball.level_start[3])
    for k, where, value in (
        (kernel, 0, np.nan),
        (kernel, window - 1, np.inf),
        (kernel, window - 1, complex(0.0, -np.inf)),
        (kernel, window, np.nan),
        (kernel, ball.size - 1, np.inf),
        (huge, 0, 1.0),
    ):
        f = np.zeros(ball.size, dtype=complex)
        f[:4] = 1.0
        f[where] = value
        with pytest.raises(DomainError) as want:
            full_ball_transference_check(k, ball, f, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as got:
                transference_check(k, ball, f, 1.5)
        assert str(got.value) == str(want.value), (where, value)


def test_a_zero_padded_kernel_is_the_trimmed_kernel():
    # trailing zero spheres are dropped when a kernel is built, so no entry
    # point sees them: a padded twin gives the same bytes everywhere
    rng = np.random.default_rng(229)
    ball = ball_geometry(2, 6)
    f = np.zeros(ball.size, dtype=complex)
    window = int(ball.level_start[4])  # the interior window of a radius-2 kernel
    f[:window] = rng.normal(size=window) + 1j * rng.normal(size=window)
    for vals in ([1.0, 0.5], rng.normal(size=3) + 1j * rng.normal(size=3)):
        kernel = radial_kernel(2, vals)
        twin = radial_kernel(2, np.concatenate([vals, np.zeros(1100)]))
        assert twin.radius == kernel.radius == len(vals) - 1
        for p in (1.0, 1.5, 3.0, math.inf):
            assert report_to_json(bounds_report(twin, p)) == report_to_json(
                bounds_report(kernel, p)
            )
        assert tree_norm_upper(twin, 1.0) == tree_norm_upper(kernel, 1.0)
        assert np.array_equal(
            spherical_transform(twin, 64).samples, spherical_transform(kernel, 64).samples
        )
        assert abel_to_csv(abel_forward(twin)) == abel_to_csv(abel_forward(kernel))
        assert np.array_equal(ball.convolve(twin, f), ball.convolve(kernel, f))
        assert transference_check(twin, ball, f, 1.5) == transference_check(kernel, ball, f, 1.5)


def test_transference_check_rejects_unsupported_input():
    ball = ball_geometry(2, 4)
    kernel = ball_kernel(2, 2)
    f = np.ones(ball.size, dtype=complex)  # reaches depth 4 > R - D = 2
    with pytest.raises(DomainError):
        transference_check(kernel, ball, f, 1.5)


def test_transference_check_support_ends_at_the_window_sphere():
    # breadth-first, sphere window + 1 starts right after the last vertex of sphere window
    for q, R, D in ((2, 4, 2), (3, 8, 3), (3, 5, 0)):
        ball = ball_geometry(q, R)
        kernel = radial_kernel(q, [1.0] * (D + 1))
        window = R - D
        inside = np.zeros(ball.size, dtype=complex)
        inside[ball.level_start[window + 1] - 1] = 1.0
        assert ball.depth[ball.level_start[window + 1] - 1] == window
        assert transference_check(kernel, ball, inside, 1.5)["ok"]
        if window < R:
            outside = np.zeros(ball.size, dtype=complex)
            outside[ball.level_start[window + 1]] = 1.0
            with pytest.raises(DomainError, match="support violation"):
                transference_check(kernel, ball, outside, 1.5)


def test_transference_check_refuses_non_finite_values_without_a_warning():
    # a NaN or inf in f, an f whose l^p power sum overflows, and a kernel
    # whose walk or shell series overflows: each raises DomainError naming
    # the value, where the check used to return NaN or warn
    ball = ball_geometry(2, 6)
    kernel = radial_kernel(2, [1.0, 2.0, 3.0])
    huge = radial_kernel(2, [1.0, 1e308, 1e308, 1e308])

    def f_with(root):
        f = np.zeros(ball.size, dtype=complex)
        f[:2] = root, 1.0
        return f

    cases = (
        (kernel, f_with(np.nan), r"\|\|f\|\|_p is nan"),
        (kernel, f_with(np.inf), r"\|\|f\|\|_p is inf"),
        (kernel, f_with(complex(1.0, -np.inf)), r"\|\|f\|\|_p is inf"),
        (kernel, f_with(1e300), r"\|\|f\|\|_p is inf"),
        (huge, f_with(1.0), "lhs is inf"),
        (huge, np.zeros(ball.size), "rhs is nan"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, f, message in cases:
            with pytest.raises(DomainError, match=message):
                transference_check(k, ball, f, 1.5)


def test_transference_check_rejects_p_out_of_range():
    ball = ball_geometry(2, 4)
    f = np.zeros(ball.size, dtype=complex)
    f[0] = 1.0
    with pytest.raises(DomainError):
        transference_check(ball_kernel(2, 1), ball, f, 2.0)


# ---------------------------------------------------------------------------
# Assembled reports
# ---------------------------------------------------------------------------

def test_bounds_report_frozen_unit_ball_example():
    rep = bounds_report(ball_kernel(2, 1), 1.5, radius=6)
    assert rep.q == 2 and rep.p == 1.5 and rep.R == 6
    # step 1 is the one row q^{1/p} = 2^{2/3} of the single shell, step 2
    # is 1 + 2^{1/3}, and the total is Herz's norm of the kernel
    assert rep.step1_upper == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-14)
    assert rep.step2_upper == pytest.approx(2.259921049894873, rel=1e-13)
    assert rep.total_upper == pytest.approx(1.0 + 2.0 ** (1.0 / 3.0) + 2.0 ** (2.0 / 3.0), rel=1e-14)
    # the lower end is Herz's norm too, rounded down by at most gamma
    herz = 1.0 + 2.0 ** (1.0 / 3.0) + 2.0 ** (2.0 / 3.0)
    assert rep.compression_lower == pytest.approx(herz, rel=herz_gamma(ball_kernel(2, 1)))
    assert rep.symbol_lower <= rep.symbol_upper
    assert rep.weyl_residual == 0.0
    assert rep.compression_lower <= rep.total_upper


def test_bounds_report_key_order_is_stable():
    rep = bounds_report(delta_kernel(2), 1.5, radius=3)
    keys = list(rep.to_json_dict().keys())
    assert keys == [
        "q",
        "p",
        "R",
        "step1_upper",
        "step2_upper",
        "total_upper",
        "compression_lower",
        "symbol_lower",
        "symbol_upper",
        "weyl_residual",
        "dictionary_version",
    ]


def test_bounds_report_numeric_fields_are_plain_floats():
    rep = bounds_report(ball_kernel(2, 1), 1.5, radius=4)
    for name in (
        "step1_upper",
        "step2_upper",
        "total_upper",
        "compression_lower",
        "symbol_lower",
        "symbol_upper",
        "weyl_residual",
    ):
        assert type(getattr(rep, name)) is float, name


def test_bounds_report_next_to_two_and_at_the_endpoints_is_sound():
    # no line profile is built, so exponents next to 2 need no large grid
    cases = (
        (ball_kernel(2, 2), 1.9),
        (ball_kernel(2, 2), 1.9 / 0.9),
        (ball_kernel(3, 2), 1.9),
        (ball_kernel(2, 2), 1.5),
        (delta_kernel(2), 1.9),
        (ball_kernel(2, 2), 1.0),
        (ball_kernel(2, 2), math.inf),
    )
    for k, p in cases:
        rep = bounds_report(k, p)
        assert 0.0 < rep.compression_lower <= rep.total_upper < math.inf, (k.params.q, p)


def test_bounds_report_refuses_p_two():
    with pytest.raises(ScopeError):
        bounds_report(ball_kernel(2, 1), 2.0)


@pytest.mark.parametrize("p", [1.0 + 1e-9, 1e15, 1e16, 1e300, 1.9999])
def test_bounds_report_serves_p_next_to_one_two_and_inf(p):
    # the dual of 1e16 or 1e300 rounds to 1, so the l1 norm serves them
    rep = bounds_report(ball_kernel(2, 2), p)
    assert 0.0 < rep.compression_lower <= rep.total_upper < math.inf
    if p >= 1e16:
        assert rep.total_upper == 10.0 and rep.step1_upper is None


def test_bounds_report_next_to_two_is_herz_norm():
    # |FT k(i delta)| = sum_d |S_d| k(d) phi_{i delta}(d), with phi from the
    # eigenfunction recurrence in 50 digits
    k = ball_kernel(2, 2)
    z = 1j * strip_halfwidth(1.9999)
    phi = recurrence_spherical(2, z, 2)
    exact = sum(size * value for size, value in zip(sphere_sizes(k.params, 2), phi))
    herz = abs(exact)
    assert abs(spherical_transform_at(k, z) - exact) <= 1e-14 * herz
    total = bounds_report(k, 1.9999).total_upper
    assert total == pytest.approx(herz, rel=1e-13)
    assert total == pytest.approx(8.828427127573402, rel=1e-15)


def test_bounds_report_duality_matches():
    k = ball_kernel(2, 1)
    a = bounds_report(k, 3.0, radius=5)
    b = bounds_report(k, 1.5, radius=5)
    assert a.total_upper == b.total_upper
    assert a.p == 3.0 and b.p == 1.5


def test_necessity_ratio_guards():
    rep = bounds_report(ball_kernel(2, 1), 1.5, radius=5)
    assert rep.necessity_ratio == rep.compression_lower / rep.symbol_upper
    degenerate = BoundsReport(
        q=2,
        p=1.5,
        R=5,
        step1_upper=0.0,
        step2_upper=0.0,
        total_upper=0.0,
        compression_lower=0.0,
        symbol_lower=0.0,
        symbol_upper=0.0,
        weyl_residual=0.0,
        dictionary_version="dict-v2",
    )
    assert degenerate.necessity_ratio == 0.0


def test_overflowing_trial_ratios_certify_nothing():
    # The l^p norms of the matched-row (1e100, p = 3/2) and delta (1e7,
    # p = 50) trials overflow: an infinite ratio once tripped the sandwich,
    # and the clamp to the upper end reported it as a collapsed interval.
    # The shifted coefficients of these kernels change sign, so the
    # dictionary runs; its lower end is the line sup, which needs no power
    # sum, and the symbols attain ||F||_1, so the intervals collapse
    cases = (
        ([1e100, -1e100], 1.5, 5, "3.8473221018630725e+100"),
        ([1e7, -1e7], 50.0, None, "39864248.88776747"),
    )
    for values, p, radius, lower in cases:
        k = radial_kernel(2, values)
        with np.errstate(over="ignore"):
            rep = bounds_report(k, p, radius=radius)
            interval, _ = symbol_norm_report(k, p)
        assert 0.0 <= rep.compression_lower <= rep.total_upper < math.inf
        assert repr(rep.symbol_lower) == repr(interval.lower) == lower
        assert interval.lower_method == f"trial:line-sup({DICTIONARY_VERSION})"
    # one-sign kernels of the same size have the exact, finite l1 norm
    # (at [1e7, 1e7], p = 50 the dictionary's lower end was 0.0)
    for values, p in (([1e100, 1e100], 1.5), ([1e7, 1e7], 50.0)):
        k = radial_kernel(2, values)
        interval, _ = symbol_norm_report(k, p)
        l1 = abel_forward(k).shifted(strip_halfwidth(p)).l1()
        assert interval.lower == interval.upper == l1 < math.inf


def test_soundness_error_is_a_runtime_error():
    assert issubclass(SoundnessError, RuntimeError)


def test_nan_upper_bound_fails_the_sandwich(monkeypatch):
    import treeharmonics.engine as engine

    monkeypatch.setattr(
        engine, "tree_norm_upper", lambda kernel, p, **shared: (math.nan, None, None)
    )
    with pytest.raises(SoundnessError):
        bounds_report(ball_kernel(2, 1), 1.5, radius=5)


def test_non_finite_kernels_are_rejected():
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(DomainError, match="finite"):
            radial_kernel(2, [1.0, bad])
        with pytest.raises(DomainError, match="finite"):
            ZKernel(tree_params(2), -1, [1.0, bad])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    q=st.sampled_from((2, 3)),
    values=st.lists(
        st.complex_numbers(max_magnitude=1e308, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=4,
    ),
    p=st.floats(min_value=1.0),
)
def test_every_kernel_and_exponent_give_a_sound_report_or_a_documented_error(q, values, p):
    # warnings are errors in the suite, so no example may emit one either
    try:
        rep = bounds_report(radial_kernel(q, values), p)
    except (DomainError, ScopeError):
        return
    assert math.isfinite(rep.total_upper)
    assert 0.0 <= rep.compression_lower <= rep.total_upper + 1e-10 * max(1.0, rep.total_upper)


def test_compression_at_large_radius_stays_finite_and_sound():
    # sphere sizes overflow float64 near q=3, R=645 and q=2, R=1020
    for q, R in ((3, 700), (2, 1100)):
        rep = bounds_report(ball_kernel(q, 2), 1.5, radius=R)
        assert math.isfinite(rep.compression_lower)
        assert 0.0 < rep.compression_lower <= rep.total_upper, (q, R)


def test_a_signed_row_whose_l1_sum_overflows_makes_the_split_infinite():
    # every scaled entry q^{u/p} k(u) is +-8e307, finite, but row 0 sums to
    # 2.4e308; the row is signed, so convolutor_upper meets the overflow
    kernel = radial_kernel(2, [0.0, 8e307 * 2.0 ** (-2 / 3), -8e307 * 2.0 ** (-4 / 3), 8e307 / 4])
    assert not _plan(kernel, 1.5).herz
    assert negative_height_bound(kernel, 1.5) == math.inf
    with pytest.raises(DomainError) as err:
        bounds_report(kernel, 1.5)
    assert str(err.value) == "the height-split bound overflows float64"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: nonnegative_height_bound(ball_kernel(2, 2), 1.0),
         "nonnegative-height bound requires p in (1, 2), got p=1"),
        (lambda: transference_check(ball_kernel(3, 1), ball_geometry(2, 3), np.zeros(22), 1.5),
         "kernel and ball live on trees of different degree"),
        (lambda: transference_check(ball_kernel(2, 4), ball_geometry(2, 3), np.zeros(22), 1.5),
         "kernel radius 4 exceeds ball radius 3: no interior window"),
        (lambda: transference_check(ball_kernel(2, 1), ball_geometry(2, 3), np.zeros(21), 1.5),
         "f must be a vector of length 22, got shape (21,)"),
    ],
)
def test_engine_refuses_invalid_input_with_its_message(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
