"""Kernels on the integers: transform, norm brackets, strip sups, truncation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (
    angle_three_term_sup,
    dense_grid_symbol,
    dense_inverse_sum,
    direct_dictionary_ratios,
    fine_grid_line_sup,
    masked_phase_power,
    mp_trig_sup,
    power_sum_norm,
    scalar_line_sup,
    trapezoid_line_profile,
    unpruned_line_sup,
)

from treeharmonics.params import DomainError, SoundnessError, dual_exponent, torus_grid, tree_params
from treeharmonics.abel import abel_forward
from treeharmonics.engine import bounds_report, spectral_sup
from treeharmonics.spherical import ball_kernel, radial_kernel
from treeharmonics.zline import (
    DICTIONARY_VERSION,
    ZKernel,
    _grid_symbol,
    _line_sup,
    _powers,
    _three_term_sup,
    convolutor_interval,
    convolutor_upper,
    duality_ascent,
    fourier_z,
    hilbert_witness,
    hinf_strip_norm,
    inverse_fourier_z,
    lp_norm,
    phase_power,
    truncate,
    truncation_bound,
    zkernel,
)


def random_zkernel(rng, q=2, span=6):
    lo = int(rng.integers(-span, 1))
    hi = int(rng.integers(0, span + 1))
    vals = rng.normal(size=hi - lo + 1) + 1j * rng.normal(size=hi - lo + 1)
    return ZKernel(tree_params(q), lo, vals)


# ---------------------------------------------------------------------------
# Container behaviour
# ---------------------------------------------------------------------------

def test_zkernel_indices_and_lookup():
    F = zkernel(2, [1.0, 2.0, 3.0], offset=-1)
    assert F.indices.tolist() == [-1, 0, 1]
    assert F.at(-1) == 1.0 and F.at(1) == 3.0 and F.at(5) == 0.0
    assert F.support == (-1, 1)
    assert F.l1() == 6.0


def test_zkernel_trimming_preserves_alignment():
    F = zkernel(2, [0.0, 0.0, 5.0, 0.0], offset=-3)
    T = F.trimmed()
    assert T.offset == -1 and T.values.tolist() == [5.0]
    Z = zkernel(2, [0.0, 0.0]).trimmed()
    assert Z.offset == 0 and Z.values.tolist() == [0.0]


def test_a_kernel_keeps_its_l1_sum_and_a_trimmed_copy_takes_its_own():
    # numpy's pairwise sum groups its terms by the array's length: with a zero
    # in front, these nine moduli sum to a different last bit
    vals = [
        0.6369616873214543, 269.7867137638703, 0.0004097352393619469,
        1.6527635528529094, 8.132702392002724, 0.0009127555772777217,
        0.06066357757671799, 729.4965609839984, 0.5436249914654229,
    ]
    F, G = zkernel(2, [0.0, *vals]), zkernel(2, vals)
    assert F.l1() == F.l1() != G.l1()
    assert repr(F.trimmed().l1()) == repr(G.l1())
    H = zkernel(2, [1e308, 1e308])
    for _ in range(2):  # a kept sum that overflowed raises at every call
        with pytest.raises(DomainError, match="overflows float64"):
            H.l1()


def test_fourier_z_sign_convention():
    params = tree_params(2)
    s = 0.37
    val = fourier_z(zkernel(2, [1.0], 1), s)
    assert val == pytest.approx(np.exp(-1j * s * params.log_q), abs=1e-15)


def test_fourier_roundtrip_on_integers():
    from treeharmonics.params import torus_grid

    rng = np.random.default_rng(53)
    for _ in range(10):
        F = random_zkernel(rng)
        samples = fourier_z(F, torus_grid(F.params, 128))
        for d in range(F.offset - 1, F.offset + F.values.size + 1):
            got = inverse_fourier_z(samples, d)
            assert abs(got - F.at(d)) <= 1e-12


def test_inverse_fourier_z_matches_the_dense_trapezoid_sum():
    rng = np.random.default_rng(47)
    for q, n in ((2, 64), (3, 512), (5, 4096), (2, 4096)):
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        # the ends of the window [-n/2, n/2], and indices that wrap around the grid
        ends = np.arange(-8, 9)
        wrapped = rng.integers(-3 * n, 3 * n, size=64)
        d = np.concatenate([ends - n // 2, ends, ends + n // 2, wrapped])
        got = inverse_fourier_z(samples, d)
        # every value is at most ||samples||_1 / n in modulus
        scale = np.abs(samples).sum() / n
        assert np.abs(got - dense_inverse_sum(q, samples, d)).max() <= 1e-13 * scale
        assert inverse_fourier_z(samples, int(d[3])) == got[3]
    with pytest.raises(DomainError):
        inverse_fourier_z(np.ones(64), 0.5)


def test_grid_symbol_matches_the_dense_phase_sum():
    rng = np.random.default_rng(79)
    for i in range(40):
        q = (2, 3, 5)[i % 3]
        length = int(rng.integers(1, 301))
        d = int(rng.integers(-60, 61)) + np.arange(length)
        coeffs = rng.normal(size=length) + 1j * rng.normal(size=length)
        # n = 64 folds kernels longer than the grid onto it
        n = 64 if i % 4 == 0 else 1024
        got = _grid_symbol(coeffs, d, n)
        want = dense_grid_symbol(q, d, coeffs, n)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(coeffs).sum()


def test_grid_symbol_folds_like_add_at_byte_for_byte():
    # at most n consecutive integers fold by one indexed add, which gives
    # the bytes of np.add.at on distinct residues; longer windows wrap
    rng = np.random.default_rng(83)
    for n in (64, 1024):
        for length in (1, 2, 63, 64, 65, 200):
            d = int(rng.integers(-80, 81)) + np.arange(length)
            coeffs = rng.normal(size=length) + 1j * rng.normal(size=length)
            coeffs[::5] = complex(-0.0, 0.0)
            folded = np.zeros(n, dtype=complex)
            np.add.at(folded, d % n, np.where(d % 2 == 0, coeffs, -coeffs))
            got = _grid_symbol(coeffs, d, n)
            assert got.tobytes() == np.fft.fft(folded).tobytes(), (n, length)


def test_lp_norm_edge_cases():
    assert lp_norm([], math.inf) == 0.0
    assert lp_norm([3.0, -4.0], math.inf) == 4.0
    assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, rel=1e-15, abs=0.0)
    assert lp_norm([1.0, 1.0, 1.0], 1.0) == pytest.approx(3.0, rel=1e-15, abs=0.0)


def test_lp_norm_is_the_power_sum_byte_for_byte():
    # a vector with zeros raises only its nonzero entries; every other entry
    # goes through the same pow and the same pairwise sum, so the norm keeps
    # its last bit; p = 1 and p = 2 take numpy's fast scalar powers when a
    # vector has no zeros, and NaN and inf still propagate
    rng = np.random.default_rng(20)
    dense = rng.normal(size=257) + 1j * rng.normal(size=257)
    sparse = np.where(rng.random(257) < 0.6, 0.0, dense)
    tiny = np.where(sparse != 0.0, 5e-324 * np.arange(257), 0.0)
    tiny[1::3] = 2.0**-1022
    vectors = {
        "dense": dense,
        "sparse": sparse,
        "negative zeros": np.where(sparse != 0.0, sparse, -0.0).real,
        "subnormal": tiny,
        "inf": np.concatenate([sparse, [np.inf]]),
        "nan with zeros": np.concatenate([[np.nan], sparse]),
        "nan": np.concatenate([[np.nan], dense]),
        "huge": 1e300 * sparse,
        "all zero": np.zeros(13, dtype=complex),
        "one zero": np.zeros(1),
        "empty": np.zeros(0),
        "integers": np.array([0, 3, 0, -4]),
    }
    with np.errstate(over="ignore"):  # "huge" overflows to inf at every p > 1
        for name, x in vectors.items():
            for p in (1.0, 1.1, 4.0 / 3.0, 1.5, 2.0, 3.0, 7.0, 50.0):
                want = repr(power_sum_norm(x, p))
                assert repr(lp_norm(x, p)) == want, (name, p)
                assert repr(lp_norm(np.abs(x), p)) == want, (name, p)
                if name.startswith("nan"):
                    assert want == "nan", (name, p)


def test_powers_pad_with_zeros_and_keep_the_plain_bytes():
    # the padded buffer reduces to the bytes of the padded vector's norm, and
    # at p = 1 and p = 2, where mag**p is kept on vectors with zeros, the
    # masked pow gives the same bytes entry for entry
    rng = np.random.default_rng(211)
    mag = np.abs(rng.normal(size=100_000)) * 10.0 ** rng.integers(-150, 150, size=100_000)
    mag[rng.random(mag.size) < 0.5] = 0.0
    for p in (1.0, 2.0):
        masked = np.zeros_like(mag)
        np.power(mag, p, out=masked, where=mag != 0.0)
        assert _powers(mag, p, mag.size).tobytes() == masked.tobytes()
    head = np.where(rng.random(300) < 0.5, 0.0, np.abs(rng.normal(size=300)))
    for p in (1.0, 1.1, 4.0 / 3.0, 1.5, 2.0, 3.0):
        for size in (300, 301, 1000):
            padded = np.concatenate([head, np.zeros(size - head.size)])
            got = _powers(head, p, size)
            assert got.shape == (size,)
            assert repr(float(got.sum() ** (1.0 / p))) == repr(power_sum_norm(padded, p))


# ---------------------------------------------------------------------------
# Norm brackets
# ---------------------------------------------------------------------------

def test_convolutor_upper_exact_at_one_and_infinity():
    F = zkernel(2, [1.0, -2.0, 0.5])
    for p in (1.0, math.inf):
        assert convolutor_upper(F, p) == (3.5, "l1-exact(endpoint)")
        iv = convolutor_interval(F, p)
        assert (iv.lower, iv.upper) == (3.5, 3.5)
        assert iv.lower_method == f"exact:endpoint({DICTIONARY_VERSION})"
        assert iv.upper_method == "l1-exact(endpoint)"


def test_convolutor_upper_spectral_value_for_two_point_kernel():
    # symbol of [1, 1j] is 1 + 1j q^{-iz}: sup modulus 2 where the phases
    # align, which is the l1 norm, returned exactly with no grid; three
    # points of more than one sign take the grid
    F = zkernel(2, [1.0, 1j])
    assert convolutor_upper(F, 2.0) == (2.0, "l1-exact(two-entry)")
    assert convolutor_upper(zkernel(2, [1.0, 1.0]), 2.0) == (2.0, "l1-exact(one-sign)")
    val, method = convolutor_upper(zkernel(2, [1.0, 1j, -1.0]), 2.0)
    assert val == pytest.approx(3.0, abs=1e-9)
    assert method.startswith("spectral-sup")


def test_convolutor_upper_of_two_entries_is_their_l1_norm():
    # the two phases align somewhere on the line, so the norm is ||F||_1 at
    # every p; interpolating with a grid sup landed up to an ulp below it
    rng = np.random.default_rng(223)
    for q in (2, 3, 5):
        for _ in range(20):
            vals = np.zeros(int(rng.integers(2, 9)), dtype=complex)
            at = rng.choice(vals.size, size=2, replace=False)
            vals[at] = rng.normal(size=2) + 1j * rng.normal(size=2)
            F = ZKernel(tree_params(q), int(rng.integers(-4, 5)), vals)
            for p in (1.1, 1.5, 2.0, 3.0):
                assert convolutor_upper(F, p) == (F.l1(), "l1-exact(two-entry)"), (q, vals, p)
                iv = convolutor_interval(F, p)
                assert iv.lower == iv.upper == F.l1(), (q, vals, p)


def test_two_entry_kernels_have_the_exact_interval():
    # both ends are the l1 norm convolutor_upper gives; the trial dictionary
    # fell short, at [1.9999047, 2.0] for [1, -1] and [1, i] at p = 1.5
    for vals in ([1.0, -1.0], [1.0, 1j]):
        for p in (1.0, 1.5, 2.0, math.inf):
            iv = convolutor_interval(zkernel(2, vals), p)
            assert (iv.lower, iv.upper) == (2.0, 2.0)
            assert iv.lower_method == f"exact:two-entry({DICTIONARY_VERSION})"
            assert iv.upper_method == convolutor_upper(zkernel(2, vals), p)[1]


def test_convolutor_upper_interpolates_between_extremes():
    rng = np.random.default_rng(59)
    for _ in range(8):
        F = random_zkernel(rng)
        l1 = F.l1()
        sup, _ = convolutor_upper(F, 2.0)
        for p in (4.0 / 3.0, 1.5, 3.0):
            val, method = convolutor_upper(F, p)
            assert sup - 1e-12 <= val <= l1 + 1e-12
            if np.count_nonzero(F.values) <= 2:
                assert val == l1 and method in ("l1-exact(one-sign)", "l1-exact(two-entry)")
            else:
                assert method.startswith("interp")


def test_convolutor_upper_single_spike_is_sharp_everywhere():
    F = zkernel(2, [1.0], 3)
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        val, _ = convolutor_upper(F, p)
        assert val == pytest.approx(1.0, abs=1e-12)


def test_convolutor_interval_brackets_are_ordered():
    rng = np.random.default_rng(61)
    for _ in range(12):
        F = random_zkernel(rng)
        for p in (1.0, 4.0 / 3.0, 1.5, 2.0, 3.0, math.inf):
            iv = convolutor_interval(F, p)
            assert iv.lower <= iv.upper + 1e-12
            assert iv.lower >= 0.0
            assert DICTIONARY_VERSION in iv.lower_method or p == 2.0


def test_convolutor_interval_collapses_at_exact_exponents():
    F = zkernel(3, [1.0, 2.0, -1.0], offset=-1)
    for p in (1.0, 2.0, math.inf):
        iv = convolutor_interval(F, p)
        assert iv.lower == iv.upper


def test_convolutor_interval_raises_when_a_trial_passes_the_upper_end(monkeypatch):
    # a planted fault: the line sup at half its value gives the upper end
    # 1.808 while a trial attains 2.665.  Only rounding slack is clamped,
    # so the fault cannot pass as a certified bracket.
    import treeharmonics.zline as zline

    real = zline._line_sup
    monkeypatch.setattr(zline, "_line_sup", lambda F: (0.5 * real(F)[0], real(F)[1]))
    with pytest.raises(SoundnessError, match="exceeds upper"):
        convolutor_interval(zkernel(2, [1.0, 2.0, -0.5]), 1.5)


def test_convolutor_interval_is_translation_invariant():
    vals = [0.5, -1.5, 2.0]
    a = convolutor_interval(zkernel(2, vals, offset=0), 1.5)
    b = convolutor_interval(zkernel(2, vals, offset=-7), 1.5)
    assert a.lower == pytest.approx(b.lower, rel=1e-12, abs=0.0)
    assert a.upper == pytest.approx(b.upper, rel=1e-12, abs=0.0)


def test_convolutor_interval_is_deterministic():
    rng = np.random.default_rng(67)
    F = random_zkernel(rng)
    a = convolutor_interval(F, 1.5)
    b = convolutor_interval(F, 1.5)
    assert (a.lower, a.upper, a.lower_method) == (b.lower, b.upper, b.lower_method)


def test_convolutor_interval_keeps_its_pinned_bytes():
    # repr of both ends and both methods, so that a change of evaluation order
    # that moves a last bit fails here: a signed real and a complex kernel at
    # three exponents, with the line sup and the ascent winning in turn; a kernel
    # whose entries sum to 0, so the image of the first iterate, the all-ones
    # window, is exactly 0 away from its edges; and a kernel longer than the
    # ascent's window of 1024 entries
    rng = np.random.default_rng(3)
    real = zkernel(2, rng.normal(size=8), offset=-3)
    cplx = zkernel(3, rng.normal(size=7) + 1j * rng.normal(size=7), offset=-2)
    long = zkernel(2, rng.normal(size=1030) + 1j * rng.normal(size=1030), offset=-500)
    cancel = zkernel(2, [3 + 2j, 2 - 1j, 3, -8 - 1j])
    half, third = "theta=0.5,grid=1024", "theta=0.333333,grid=1024"
    pinned = [
        (real, 4.0 / 3.0, "6.679545050249671", "7.504959433525212", "power[50]", half),
        (real, 1.5, "6.624361927538003", "7.199133882415711", "line-sup", third),
        (real, 3.0, "6.624361927538003", "7.199133882415711", "line-sup", third),
        (cplx, 4.0 / 3.0, "6.8332630278006805", "7.639712716378873", "line-sup", half),
        (cplx, 1.5, "6.8332630278006805", "7.360840340133835", "line-sup", third),
        (cplx, 3.0, "6.8332630278006805", "7.360840340133835", "line-sup", third),
        (cancel, 1.5, "13.603608822057083", "14.584020725485317", "power[50]", third),
        (long, 3.0, "135.7751954739106", "261.1744662204586", "power[24]",
         "theta=0.333333,grid=4096"),
    ]
    for F, p, lower, upper, trial, interp in pinned:
        iv = convolutor_interval(F, p)
        got = (repr(iv.lower), repr(iv.upper), iv.lower_method, iv.upper_method)
        want = (lower, upper, f"trial:{trial}({DICTIONARY_VERSION})", f"interp(l1,sup;{interp})")
        assert got == want, (F.values, p)


def test_one_entry_kernels_bracket_their_modulus():
    # a scaled shift has norm |c| at every p; every trial ties at |c| up to
    # rounding, and the lower end never passes the upper
    rng = np.random.default_rng(71)
    for offset in (-9, 0, 4, 250):
        c = complex(rng.normal(), rng.normal())
        F = zkernel(3, [0.0, c, 0.0], offset=offset - 1)
        for p in (1.0, 1.1, 2.0, 3.0, math.inf):
            iv = convolutor_interval(F, p)
            assert iv.lower <= iv.upper
            assert iv.lower == pytest.approx(abs(c), rel=1e-15, abs=0.0)
            assert iv.upper == pytest.approx(abs(c), rel=1e-15, abs=0.0)
    for p in (1.0, 1.5, 2.0, math.inf):
        iv = convolutor_interval(zkernel(2, [0.0, 0.0], offset=3), p)
        assert (iv.lower, iv.upper) == (0.0, 0.0)


def dictionary_cases():
    """Seeded real and complex kernels of lengths 1-300, many longer than the short boxes."""
    rng = np.random.default_rng(137)
    for i in range(24):
        q = (2, 3, 5)[i % 3]
        length = int(rng.integers(100, 301)) if i % 6 == 0 else int(rng.integers(1, 41))
        vals = rng.normal(size=length)
        if i % 2:
            vals = vals + 1j * rng.normal(size=length)
        yield ZKernel(tree_params(q), int(rng.integers(-20, 21)), vals)


def test_no_dense_box_beats_the_lower_end_and_the_winner_matches_the_dictionary():
    for F in dictionary_cases():
        rounding = 1e-12 * F.l1()
        for p in (1.1, 1.5, 2.5, 4.0):
            dense = direct_dictionary_ratios(F.values, p)
            iv = convolutor_interval(F, p)
            # the boxes are no trials: the delta, the ascent and the line sup
            # reach every dense box ratio
            for trial, ratio in dense:
                if trial.startswith("box["):
                    assert ratio <= iv.lower + rounding, (trial, p)

            candidates = [(t, r) for t, r in dense if not t.startswith("box[")]
            candidates.append(("line-sup", _line_sup(F)[0]))
            ratios = dict(candidates)
            name = iv.lower_method.removeprefix("trial:").removesuffix(f"({DICTIONARY_VERSION})")
            best_name, best = candidates[0]
            for trial, ratio in candidates[1:]:
                if ratio > best:
                    best_name, best = trial, ratio
            assert abs(iv.lower - min(best, iv.upper)) <= rounding
            # an l^p multiplier norm is at least the l^2 one, the sup of the symbol
            assert iv.lower >= ratios["line-sup"]
            # the first strictly greatest ratio wins; trials tied to within
            # rounding may fall either way
            assert ratios[name] >= best - rounding
            if best - max(r for t, r in candidates if t != best_name) > rounding:
                assert name == best_name


def test_a_modulated_one_sign_kernel_reaches_its_exact_norm():
    # [1, 1j, -1] is |[1, 1, 1]| modulated by 1j per step: its norm is ||F||_1 = 3
    iv = convolutor_interval(zkernel(2, [1, 1j, -1]), 1.5)
    assert (iv.lower, iv.upper) == (3.0, 3.0)
    assert iv.lower_method == f"trial:line-sup({DICTIONARY_VERSION})"


def test_one_sign_kernels_have_the_l1_norm_as_their_upper_end():
    # interpolating with a grid sup landed up to 4.2e-16 below ||F||_1 on
    # some of these kernels, an upper end below the exact norm
    rng = np.random.default_rng(3000)
    for i in range(3000):
        q = (2, 3, 5, 7)[i % 4]
        vals = rng.random(int(rng.integers(3, 12))) * 10.0 ** rng.uniform(-5.0, 5.0)
        F = ZKernel(tree_params(q), int(rng.integers(-6, 7)), vals)
        p = (1.1, 4.0 / 3.0, 1.5, 1.8, 1.99, 3.0)[i % 6]
        assert convolutor_upper(F, p) == (F.l1(), "l1-exact(one-sign)"), (q, vals, p)
    # the Abel transform of a ball indicator is one-sign: its spectral sup is
    # ||abel||_1 exactly, where the grid gave 138.5307436087194 at q = 3, r = 5
    for q, r in ((2, 1), (2, 4), (3, 5), (5, 3)):
        kernel = ball_kernel(q, r)
        assert spectral_sup(kernel) == abel_forward(kernel).l1(), (q, r)


def one_sign_cases():
    """Seeded positive, negative and one-entry complex kernels of lengths 1-300."""
    rng = np.random.default_rng(251)
    for i in range(15):
        q = (2, 3, 5)[i % 3]
        offset = int(rng.integers(-20, 21))
        if i % 3 == 2:
            vals = [complex(rng.normal(), rng.normal())]
        else:
            length = int(rng.integers(100, 301)) if i % 5 == 0 else int(rng.integers(1, 41))
            vals = np.abs(rng.normal(size=length)) * (1.0 if i % 3 == 0 else -1.0)
            vals[rng.random(length) < 0.2] = 0.0  # interior zeros keep the sign
        yield ZKernel(tree_params(q), offset, vals)


def test_one_sign_kernels_have_the_exact_l1_norm():
    for F in one_sign_cases():
        l1 = F.l1()
        for p in (1.1, 1.5, 2.0, 2.5, 4.0):
            iv = convolutor_interval(F, p)
            assert iv.lower == iv.upper == l1
            assert iv.lower_method == f"exact:one-sign({DICTIONARY_VERSION})"
            # at least every dictionary trial ratio, and the old interpolated upper end
            for _, ratio in direct_dictionary_ratios(F.values, p):
                assert ratio <= l1 + 1e-12 * l1
            assert abs(convolutor_upper(F, p)[0] - l1) <= 1e-12 * l1


def test_complex_kernels_whose_real_parts_share_a_sign_keep_the_dictionary():
    # the real parts [1, 0, 1] share a sign, but the l^2 norm is sqrt(5) < ||F||_1 = 3
    F = zkernel(2, [1.0, 1j, 1.0])
    assert abs(convolutor_interval(F, 2.0).upper - math.sqrt(5.0)) <= 1e-12
    iv = convolutor_interval(F, 1.5)
    assert iv.lower_method.startswith("trial:") and iv.upper < 3.0


def test_interval_values_are_plain_floats():
    iv = convolutor_interval(zkernel(2, [1.0, 1.0]), 1.5)
    assert type(iv.lower) is float and type(iv.upper) is float


# ---------------------------------------------------------------------------
# Strip sups and truncation
# ---------------------------------------------------------------------------

def convolution_ascent(vals, p, window):
    """``(apply, adjoint, norm)`` of convolution by ``vals`` on a trial window."""
    lag = vals.size - 1
    rev = np.conj(vals[::-1])
    return (
        lambda x: np.convolve(x, vals),
        lambda w: np.convolve(w, rev)[lag : lag + window],
        lambda x: lp_norm(x, p),
    )


def test_duality_ascent_yields_exact_ratios_of_its_iterates():
    rng = np.random.default_rng(41)
    for p in (1.1, 1.5, 3.0):
        vals = rng.normal(size=5) + 1j * rng.normal(size=5)
        apply, adjoint, norm = convolution_ascent(vals, p, 24)
        x = rng.normal(size=24) + 0j
        steps = list(duality_ascent(apply, adjoint, norm, x, p, 30))
        assert [k for k, _ in steps] == list(range(1, len(steps) + 1))
        # rebuild each iterate outside the generator, without normalizing:
        # the ratio does not see the scale of the trial vector
        for _, value in steps:
            assert value == pytest.approx(norm(apply(x)) / norm(x), rel=1e-12, abs=0.0)
            x = phase_power(adjoint(phase_power(apply(x), p - 1.0)), dual_exponent(p) - 1.0)


def test_phase_power_of_subnormal_entries():
    # dividing by a subnormal modulus once gave NaN
    y = np.array([1e-320 + 1e-320j, -3e-310 + 0j, 1e300 - 1e300j, 0j, 2.5 + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        given = y.copy()
        out = phase_power(given, 0.5)
    # the masked path writes over the complex array it is given
    assert out is given
    mag = np.abs(y)
    assert out[3] == 0.0
    # a subnormal modulus carries few significant bits; its phase is exact
    for i in (0, 1):
        assert np.angle(out[i]) == pytest.approx(np.angle(y[i]), abs=1e-15)
        assert abs(out[i]) == pytest.approx(mag[i] ** 0.5, rel=1e-15, abs=0.0)
    # entries of normal modulus keep their bytes
    for i in (2, 4):
        assert out[i] == (y[i] / mag[i]) * mag[i] ** 0.5


def test_phase_power_equals_the_masked_form_byte_for_byte():
    rng = np.random.default_rng(5)
    cases = [np.zeros(0, dtype=complex), np.array([2.5, -1.0, 3.0])]
    for n in (1, 3, 12, 64):
        for scale in (1.0, 1e-310, 1e307):
            y = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
            cases.append(y)
            with_zeros = y.copy()
            with_zeros[rng.integers(0, n, size=max(1, n // 4))] = 0.0
            cases.append(with_zeros)
            mixed = y.copy()
            mixed[0] = 3e-320 - 1e-321j  # one subnormal modulus among normal ones
            cases.append(mixed)
            huge = y.copy()
            huge[-1] = 1e308 - 1e308j  # a modulus near the float64 limit
            cases.append(huge)
            # exact zeros of every sign, and nonzero entries with a signed zero part
            signed = y.copy()
            zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
            signed[rng.integers(0, n, size=max(1, n // 3))] = zeros[n % 4]
            signed[0] = zeros[(n + 1) % 4]
            signed[-1] = complex(-0.0, -1.0)
            cases.append(signed)
            parity = y.copy()
            parity[1::2] = complex(-0.0, 0.0)
            cases.append(parity)
    cases.append(np.array(zeros))
    cases.append(np.array([-0.0, 2.5, 0.0, -1.0]))
    for y in cases:
        for expo in (0, 0.0, 0.1, 0.5, 1.0 / 3.0, 2.0, 10.0, -0.5):
            # large moduli overflow in both forms alike
            with np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                given = y.copy()
                out = phase_power(given, expo)
                expected = masked_phase_power(y, expo)
            assert out.dtype == expected.dtype and out.shape == expected.shape
            assert out.tobytes() == expected.tobytes(), (y, expo)
            # both paths write over a complex array and return it; other input is copied
            assert (out is given) == (y.dtype == complex), (y, expo)


def test_ascent_into_subnormal_iterates_emits_no_warning():
    # the ascent's last iterate on this kernel has entries of subnormal modulus
    F = zkernel(2, [1.09777451 + 0.64468183j, -1.21427982 - 0.40570422j], 13)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        iv = convolutor_interval(F, 1.1)
    assert 0.0 < iv.lower <= iv.upper < math.inf


def test_duality_ascent_stopping_rules():
    rng = np.random.default_rng(43)
    vals = rng.normal(size=4) + 1j * rng.normal(size=4)
    apply, adjoint, norm = convolution_ascent(vals, 1.5, 16)
    start = np.ones(16, dtype=complex)
    # the iterate cap
    assert len(list(duality_ascent(apply, adjoint, norm, start, 1.5, 3))) == 3
    # convergence: a scalar multiple has the same ratio at every iterate
    scale = convolution_ascent(np.array([2.0 + 0j]), 1.5, 16)
    steps = list(duality_ascent(*scale, start, 1.5, 50))
    assert [k for k, _ in steps] == [1, 2]
    assert all(value == pytest.approx(2.0, rel=1e-14, abs=0.0) for _, value in steps)
    # a vanishing start, and an iterate that vanishes after one step
    assert list(duality_ascent(apply, adjoint, norm, np.zeros(16, dtype=complex), 1.5, 50)) == []
    vanish = lambda w: np.zeros(16, dtype=complex)  # noqa: E731
    assert [k for k, _ in duality_ascent(apply, vanish, norm, start, 1.5, 50)] == [1]
    # below a power sum of 2**-1000, a norm below 2**(-2000/3) ~ 1.6e-201 at
    # p = 1.5, neither an iterate nor an image makes a ratio
    for factor, steps in ((1e-190, 3), (1e-210, 0)):
        shrunk = lambda x, factor=factor: apply(x) * factor  # noqa: E731
        assert len(list(duality_ascent(shrunk, adjoint, norm, start, 1.5, 3))) == steps
    assert list(duality_ascent(apply, adjoint, norm, start * 1e-210, 1.5, 50)) == []
    # a value that overflows, or is NaN, is never yielded
    for bad in (1e300, math.nan):
        blowup = lambda x, bad=bad: apply(x) * bad  # noqa: E731
        with np.errstate(over="ignore"):
            assert list(duality_ascent(blowup, adjoint, norm, start, 1.5, 50)) == []


def test_duality_ascent_refuses_endpoint_exponents():
    apply, adjoint, _ = convolution_ascent(np.ones(2, dtype=complex), 1.5, 8)
    for p in (1.0, math.inf):
        with pytest.raises(DomainError):
            list(duality_ascent(apply, adjoint, lambda x: lp_norm(x, p), np.ones(8), p, 10))


def line_sup_cases():
    """Seeded kernels for the line sup: random windows, monomials and ``1/d``."""
    rng = np.random.default_rng(97)
    for i in range(200):
        q = (2, 3, 5)[i % 3]
        length = 1 if i % 8 == 0 else int(rng.integers(1, 121))
        vals = rng.normal(size=length) + 1j * rng.normal(size=length)
        yield ZKernel(tree_params(q), int(rng.integers(-60, 61)), vals), (0.0, -0.25)[i % 2]
    d = np.arange(1, 1025)
    for v in (0.0, -0.25):
        yield ZKernel(tree_params(2), 1, 1.0 / d), v


def grid_size(F, n):
    """The grid ``_line_sup`` reports for ``F`` where its grid would have ``n`` points.

    A three-term symbol with nonzero ends runs no grid and reports 0.
    """
    vals = F.values
    return 0 if vals.size == 3 and vals[0] != 0.0 and vals[2] != 0.0 else n


def test_line_sup_matches_the_per_maximum_refinement():
    for F, v in line_sup_cases():
        sup, n = _line_sup(F.shifted(v))
        ref, ref_n = scalar_line_sup(F.params.q, F.offset, F.values, v)
        assert n == grid_size(F, ref_n)
        assert sup == pytest.approx(ref, rel=1e-13, abs=0.0)
        # the unrefined grid falls short by up to 0.5%, so a dropped
        # refinement fails here
        assert sup >= (1.0 - 1e-13) * fine_grid_line_sup(F.params.q, F.offset, F.values, v)
        # the refinement once overflowed on kernels this large, and its
        # derivative products underflowed on kernels this small, and either
        # way fell back to the grid value; it now commutes exactly with a
        # power-of-two scale
        for scale in (2.0**520, 2.0**-600, 2.0**-900):
            scaled = ZKernel(F.params, F.offset, F.values * scale)
            assert _line_sup(scaled.shifted(v)) == (sup * scale, n), scale


def test_line_sup_of_huge_coefficients_emits_no_warning():
    # the w and w^2 columns are formed after the power-of-two scale, so a
    # coefficient near the float64 limit no longer overflows them (both
    # reproducers used to raise under -W error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = radial_kernel(50, [1e300, -1e300, 1e300, 1e300, -1e300, 1e300, 1e300, -1e300])
        report = bounds_report(kernel, 1.999)
        assert math.isfinite(report.symbol_upper) and math.isfinite(report.total_upper)
        F = zkernel(2, [1e306, -1e306, 1e306, 5e305], offset=-40)
        interval = convolutor_interval(F, 1.5)
        assert math.isfinite(interval.lower) and math.isfinite(interval.upper)
        sup, _ = _line_sup(F)
        assert math.isfinite(sup)
        assert sup >= fine_grid_line_sup(2, -40, F.values * 2.0**-100, 0.0) * 2.0**100 * (1 - 1e-13)
        # |c_d w_d| alone overflows here, which the pruning reach once summed unscaled
        wide = zkernel(2, [5e307, -5e307, 5e307, 1e307j], offset=-10)
        assert math.isfinite(convolutor_interval(wide, 1.5).upper)


def test_pruned_line_sup_matches_the_unpruned_refinement():
    cases = list(line_sup_cases())
    for n_support in (64, 256, 1024, 4096):
        d = np.arange(1, n_support + 1)
        cases.append((ZKernel(tree_params(2), 1, 1.0 / d), 0.0))
    # long two-sided kernels: the trapezoid profiles' slow-tail windows span
    # 2199 entries at q = 2, p = 1.9
    for q in (2, 3):
        for p in (1.1, 4.0 / 3.0, 1.5, 1.9):
            cases.append((trapezoid_line_profile(ball_kernel(q, 2), p), 0.0))
    # two Fejer peaks, the second half a cell off the 1024-point grid and
    # 0.05% higher: its grid values lose to the first peak's, yet it wins
    params = tree_params(2)
    d = np.arange(-30, 31)
    s1, s2 = torus_grid(params, 1024)[[256, 768]] + [0.0, params.period / 2048]
    peaks = np.exp(1j * d * s1 * params.log_q) + 1.0005 * np.exp(1j * d * s2 * params.log_q)
    cases.append((ZKernel(params, -30, (1.0 - np.abs(d) / 31.0) * peaks), 0.0))
    for F, v in cases:
        sup, n = _line_sup(F.shifted(v))
        ref, ref_n = unpruned_line_sup(F, v)
        assert n == grid_size(F, ref_n)
        # the same maxima win, but a product of fewer rows rounds differently
        # (one row takes numpy's dot path): within the worst-case rounding of
        # a sum of F.values.size terms, which scales with the coefficient mass
        mass = float(np.abs(F.values * F.params.qpow(F.indices * v)).sum())
        assert abs(sup - ref) <= F.values.size * 2.0**-52 * mass


def degenerate_three_term_symbols():
    """``(q, offset, values)``: three-term symbols where the quartic degenerates."""
    flat = np.array([1.0, 4.0, -0.5])  # |m|^2 = 17.25 + 4 cos(phi) - cos(2 phi): a flat maximum
    cases = [
        [1.0, 0.0, 0.5j],  # b = 0: u = 0, the quartic is 2v w^4 - 2 conj(v)
        [2.0 - 1.0j, 0.0, 0.3 + 0.4j],
        [1.0, 0.7, 1.0],  # real and symmetric
        [-0.4, 1.3, -0.4],
        [1.0, 2.0, 1.0],  # a double root where the symbol vanishes
        [1.0, -2.0, 1.0],
        flat,  # a triple root at the maximum
        flat * np.exp(0.7j) * np.exp(1.9j * np.arange(3)),  # the same, rotated and modulated
    ]
    for k in (20, 31, 33, 40, 80, 200, 1000):
        tiny = 2.0**-k
        cases.append([tiny, 1.0 + 0.5j, 0.3 - 1.0j])  # |u| >> |v|, either end tiny
        cases.append([0.3 - 1.0j, 1.0 + 0.5j, tiny * 1j])
        cases.append([1.0, tiny * (0.2 + 0.7j), 0.3 - 1.0j])  # |u| << |v|
        cases.append([tiny, 1.0 - 2.0j, tiny * (0.6 + 0.8j)])  # both ends tiny
    for i, values in enumerate(cases):
        yield (2, 3, 5, 7, 50)[i % 5], i % 7 - 3, np.asarray(values, dtype=complex)


def three_term_cases():
    """``(F, v)``: 2,000 seeded three-term symbols, real and complex, then the degenerate ones."""
    rng = np.random.default_rng(34)
    for i in range(2000):
        q = (2, 3, 5, 7, 50)[i % 5]
        vals = rng.normal(size=3) + (1j * rng.normal(size=3) if i % 2 else 0.0)
        yield ZKernel(tree_params(q), int(rng.integers(-3, 4)), vals), (0.0, -0.25)[i // 2 % 2]
    for q, offset, values in degenerate_three_term_symbols():
        yield ZKernel(tree_params(q), offset, values), 0.0


def test_three_term_line_sup_matches_the_grid_refinement():
    for F, v in three_term_cases():
        q, offset, values = F.params.q, F.offset, F.values
        G = F.shifted(v)
        sup, n = _line_sup(G)
        assert n == 0
        ref, _ = scalar_line_sup(q, offset, values, v)
        assert sup >= ref * (1.0 - 1e-14), (q, offset, values, v)
        if sup > ref * (1.0 + 1e-14):
            # two Newton steps converge only linearly on a flat maximum and
            # fall short of it; the 50-digit maximisation is the reference
            assert abs(sup - mp_trig_sup(G.values)) <= 4 * 2.0**-52 * G.l1(), (values, v)
        assert sup >= (1.0 - 1e-13) * fine_grid_line_sup(q, offset, values, v), (values, v)


def test_three_term_line_sup_matches_a_50_digit_maximisation():
    cases = [case for i, case in enumerate(three_term_cases()) if i % 50 == 0 or i >= 2000]
    for F, v in cases:
        G = F.shifted(v)
        sup, _ = _line_sup(G)
        # an attained value evaluated in float64: within a few roundings of a
        # sum of three terms, which scale with the coefficient mass
        assert abs(sup - mp_trig_sup(G.values)) <= 4 * 2.0**-52 * G.l1(), (G.values, v)


def test_three_term_line_sup_commutes_with_a_power_of_two_scale():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, (F, v) in enumerate(three_term_cases()):
            if i % 20 and i < 2000:
                continue
            sup, _ = _line_sup(F.shifted(v))
            smallest = float(np.abs(F.shifted(v).values).min())
            for e in (-900, -600, -300, 300, 600, 900):
                if smallest * 2.0**e < 2.0**-1022:
                    continue  # an end would leave the normal range: another symbol
                scaled = ZKernel(F.params, F.offset, F.values * 2.0**e)
                assert _line_sup(scaled.shifted(v)) == (sup * 2.0**e, 0), (F.values, e)


def test_three_term_line_sup_keeps_the_bytes_of_its_angle_form():
    # arctan2 of the roots' parts is np.angle, and the inline phase matrix
    # is _eval_symbol's: on both branches of the quartic, at offsets -3..3
    # and at unit scale and 1e+-300, the bytes are those of the earlier form
    two_term_branch = 0
    for F, v in three_term_cases():
        G = F.shifted(v)
        a, b, c = G.values
        two_term_branch += abs(a * np.conj(c)) <= 2.0**-32 * abs(a * np.conj(b) + b * np.conj(c))
        for scale in (1.0, 1e-300, 1e300):
            H = ZKernel(G.params, G.offset, G.values * scale)
            assert repr(_three_term_sup(H)) == repr(angle_three_term_sup(H)), (G.values, scale)
    assert two_term_branch >= 10  # the degenerate cases whose |u| >> |v|


def test_three_term_upper_ends_name_the_quartic_route():
    F = zkernel(3, [1.0 + 0.3j, -2.0 + 1.0j, 0.5 - 0.2j], offset=1)
    sup, _ = _line_sup(F)
    assert convolutor_upper(F, 2.0) == (sup, "spectral-sup(quartic)")
    value, method = convolutor_upper(F, 1.5)
    assert method == "interp(l1,sup;theta=0.333333,quartic)"
    theta = abs(2.0 / 1.5 - 1.0)
    assert value == F.l1() ** theta * sup ** (1.0 - theta)
    # four terms keep the grid
    assert convolutor_upper(zkernel(3, [1.0, -2.0, 0.5, 0.1j]), 1.5)[1].endswith(",grid=1024)")


def test_hinf_strip_norm_validates_width():
    F = zkernel(2, [1.0], 1)
    assert hinf_strip_norm(F, 0.3) == pytest.approx(1.0, abs=1e-12)
    for eps in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            hinf_strip_norm(F, eps)


def test_hinf_strip_norm_of_unit_shifts():
    q = 2
    eps = 0.3
    # positive shift: the symbol q^{-iz} has modulus q^{v} <= 1 on v <= 0
    assert hinf_strip_norm(zkernel(q, [1.0], 1), eps) == pytest.approx(1.0, abs=1e-12)
    # negative shift: modulus q^{-v} peaks at the bottom line
    assert hinf_strip_norm(zkernel(q, [1.0], -1), eps) == pytest.approx(q**eps, rel=1e-12, abs=0.0)


def test_hinf_strip_norm_difference_kernel():
    # symbol 1 - q^{-2iz}: sup 2 attained on the real line
    F = zkernel(2, [1.0, 0.0, -1.0])
    assert hinf_strip_norm(F, 0.3) == pytest.approx(2.0, rel=1e-12, abs=0.0)


def test_strip_norm_controls_coefficient_decay():
    rng = np.random.default_rng(71)
    eps = 0.3
    for _ in range(10):
        vals = rng.normal(size=11) + 1j * rng.normal(size=11)
        F = ZKernel(tree_params(2), -5, vals)
        H = hinf_strip_norm(F, eps)
        for d in range(-5, 6):
            assert abs(F.at(d)) <= H * 2.0 ** (d * eps) * (1.0 + 1e-12)


def test_shifted_kernel_has_the_symbol_of_the_shifted_line():
    rng = np.random.default_rng(229)
    for q in (2, 3):
        F = ZKernel(tree_params(q), -3, rng.normal(size=7) + 1j * rng.normal(size=7))
        s = torus_grid(F.params, 64)
        for v in (-0.7, 0.0, 0.4):
            G = F.shifted(v)
            assert G.support == F.support
            err = np.abs(fourier_z(G, s) - fourier_z(F, s + 1j * v)).max()
            assert err <= 1e-13 * G.l1()


def test_shifted_kernel_overflow_raises_and_underflow_is_exact_zero():
    with pytest.raises(DomainError, match="overflows float64"):
        zkernel(2, [1.0, -0.5, 2.0], offset=-3).shifted(-400.0)
    G = zkernel(2, [1.0, -0.5, 2.0], offset=1).shifted(-2000.0)
    assert G.support == (1, 3) and (G.values == 0.0).all()
    assert _line_sup(G)[0] == 0.0


def test_hinf_strip_norm_raises_when_the_bottom_line_overflows():
    # the entry at -3 is scaled by q^{3 eps}, which leaves float64 at
    # eps = 400; the NaN bottom line once lost to the top in the max, and the
    # strip norm read 3.5 and the truncation bound 10.5
    F = zkernel(2, [1.0, -0.5, 2.0], offset=-3)
    with pytest.raises(DomainError, match="overflows float64"):
        hinf_strip_norm(F, 400.0)
    with pytest.raises(DomainError, match="overflows float64"):
        truncation_bound(F, 2, 400.0, 1.5)


def test_hinf_strip_norm_raises_when_a_line_l1_norm_overflows():
    # finite values whose l1 norm overflows once sent a RuntimeWarning out of
    # _line_sup's FFT: on the top line, and on a bottom line whose entries
    # stay finite after the shift
    cases = [
        (zkernel(2, [1e308, 1e308, -1e308]), 0.1),
        (zkernel(2, [1e307] * 17, offset=-17), 0.05),
    ]
    for F, eps in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="l1 norm on the integers overflows"):
                hinf_strip_norm(F, eps)


def test_truncation_bound_where_q_to_the_eps_leaves_float64():
    # 2^1100 overflows; its reciprocal tail 2^-1100 is 0 in double precision
    F = zkernel(2, [1.0, -0.5, 2.0])
    upper, _ = convolutor_upper(F, 1.5)
    big_h = hinf_strip_norm(F, 1100.0)
    assert big_h == hinf_strip_norm(F, 3.0) and math.isfinite(big_h)
    assert truncation_bound(F, 2, 1100.0, 1.5) == upper + 2.0 * big_h
    assert truncation_bound(F, 2, 3.0, 1.5) == upper + (1.0 / 7.0 + 2.0) * big_h


def test_truncate_zeroes_low_indices():
    F = zkernel(2, [1.0, 2.0, 3.0, 4.0], offset=-2)
    T = truncate(F, 0)
    assert T.offset == 0 and T.values.tolist() == [3.0, 4.0]
    full = truncate(F, -5)
    assert full.values.tolist() == [1.0, 2.0, 3.0, 4.0]
    empty = truncate(F, 7)
    assert empty.values.tolist() == [0.0]


def test_truncation_bound_dominates_certified_lower():
    rng = np.random.default_rng(73)
    for _ in range(8):
        vals = rng.normal(size=11) + 1j * rng.normal(size=11)
        F = ZKernel(tree_params(2), -5, vals)
        for p in (1.0, 1.5):
            for J in range(0, 7):
                bound = truncation_bound(F, J, 0.3, p)
                iv = convolutor_interval(truncate(F, J), p)
                assert iv.lower <= bound * (1.0 + 1e-12)


def test_truncation_bound_rejects_negative_index():
    with pytest.raises(DomainError):
        truncation_bound(zkernel(2, [1.0], 0), -1, 0.3, 1.5)


def test_hilbert_witness_grows_past_log():
    prev = 0.0
    for n in (64, 256, 1024, 4096):
        lower, logn = hilbert_witness(2, n)
        assert type(lower) is float
        assert lower >= logn
        assert lower > prev
        prev = lower


def test_hilbert_witness_refines_only_the_maxima_that_can_win():
    # refining all 3,979 grid maxima of the p = 2 sup of the witness kernel
    # 1/d on [1, 4096] once peaked at 193 MB; hilbert_witness itself no
    # longer runs a line sup, as the kernel is positive
    d = np.arange(1, 4097)
    F = ZKernel(tree_params(2), 1, 1.0 / d)
    tracemalloc.start()
    try:
        convolutor_upper(F, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_hilbert_witness_of_one_entry_is_exactly_one():
    # the line sup gave 1.0000000000000002, one ulp above the norm
    assert hilbert_witness(2, 1) == (1.0, 0.0)


def test_hilbert_witness_rejects_empty_support():
    with pytest.raises(DomainError):
        hilbert_witness(2, 0)


@pytest.mark.parametrize("values", [np.zeros(0), np.zeros((2, 2))])
def test_a_kernel_needs_a_nonempty_1d_array(values):
    with pytest.raises(DomainError) as err:
        ZKernel(tree_params(2), 0, values)
    assert str(err.value) == "kernel values must form a nonempty 1-d array"
