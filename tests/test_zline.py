"""Kernels on the integers: transform, norm brackets, strip sups, truncation."""

import math

import numpy as np
import pytest
from oracles import fine_grid_line_sup, scalar_line_sup

from treeharmonics.params import DomainError, dual_exponent, tree_params
from treeharmonics.zline import (
    DICTIONARY_VERSION,
    StripDomain,
    ZKernel,
    _line_sup,
    convolutor_interval,
    convolutor_upper,
    delta_z,
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


def test_fourier_z_sign_convention():
    params = tree_params(2)
    s = 0.37
    val = fourier_z(delta_z(2, 1), s)
    assert val == pytest.approx(np.exp(-1j * s * params.log_q), abs=1e-15)


def test_fourier_roundtrip_on_integers():
    from treeharmonics.params import torus_grid

    rng = np.random.default_rng(53)
    for _ in range(10):
        F = random_zkernel(rng)
        samples = fourier_z(F, torus_grid(F.params, 128))
        for d in range(F.offset - 1, F.offset + F.values.size + 1):
            got = inverse_fourier_z(samples, d, params=F.params)
            assert abs(got - F.at(d)) <= 1e-12


def test_lp_norm_edge_cases():
    assert lp_norm([], math.inf) == 0.0
    assert lp_norm([3.0, -4.0], math.inf) == 4.0
    assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, rel=1e-15)
    assert lp_norm([1.0, 1.0, 1.0], 1.0) == pytest.approx(3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Norm brackets
# ---------------------------------------------------------------------------

def test_convolutor_upper_exact_at_one_and_infinity():
    F = zkernel(2, [1.0, -2.0, 0.5])
    for p in (1.0, math.inf):
        val, method = convolutor_upper(F, p)
        assert val == pytest.approx(3.5, rel=1e-15)
        assert method == "l1-exact"


def test_convolutor_upper_spectral_value_for_two_point_kernel():
    # symbol of [1, 1] is 1 + q^{-iz}: sup modulus 2 at frequency 0
    F = zkernel(2, [1.0, 1.0])
    val, method = convolutor_upper(F, 2.0)
    assert val == pytest.approx(2.0, abs=1e-9)
    assert method.startswith("spectral-sup")


def test_convolutor_upper_interpolates_between_extremes():
    rng = np.random.default_rng(59)
    for _ in range(8):
        F = random_zkernel(rng)
        l1 = F.l1()
        sup, _ = convolutor_upper(F, 2.0)
        for p in (4.0 / 3.0, 1.5, 3.0):
            val, method = convolutor_upper(F, p)
            assert sup - 1e-12 <= val <= l1 + 1e-12
            assert method.startswith("interp")


def test_convolutor_upper_single_spike_is_sharp_everywhere():
    F = delta_z(2, 3)
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


def test_convolutor_interval_is_translation_invariant():
    vals = [0.5, -1.5, 2.0]
    a = convolutor_interval(zkernel(2, vals, offset=0), 1.5)
    b = convolutor_interval(zkernel(2, vals, offset=-7), 1.5)
    assert a.lower == pytest.approx(b.lower, rel=1e-12)
    assert a.upper == pytest.approx(b.upper, rel=1e-12)


def test_convolutor_interval_seeded_and_deterministic():
    rng = np.random.default_rng(67)
    F = random_zkernel(rng)
    a = convolutor_interval(F, 1.5, seed=5)
    b = convolutor_interval(F, 1.5, seed=5)
    assert (a.lower, a.upper, a.lower_method) == (b.lower, b.upper, b.lower_method)


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
            assert value == pytest.approx(norm(apply(x)) / norm(x), rel=1e-12)
            x = phase_power(adjoint(phase_power(apply(x), p - 1.0)), dual_exponent(p) - 1.0)


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
    assert all(value == pytest.approx(2.0, rel=1e-14) for _, value in steps)
    # a vanishing start, and an iterate that vanishes after one step
    assert list(duality_ascent(apply, adjoint, norm, np.zeros(16, dtype=complex), 1.5, 50)) == []
    vanish = lambda w: np.zeros(16, dtype=complex)  # noqa: E731
    assert [k for k, _ in duality_ascent(apply, vanish, norm, start, 1.5, 50)] == [1]
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


def test_line_sup_matches_the_per_maximum_refinement():
    for F, v in line_sup_cases():
        sup, n = _line_sup(F, v)
        ref, ref_n = scalar_line_sup(F.params.q, F.offset, F.values, v)
        assert n == ref_n
        assert sup == pytest.approx(ref, rel=1e-13)
        # the unrefined grid falls short by up to 0.5%, so a dropped
        # refinement fails here
        assert sup >= (1.0 - 1e-13) * fine_grid_line_sup(F.params.q, F.offset, F.values, v)


def test_strip_domain_validates_width():
    StripDomain(0.3)
    with pytest.raises(DomainError):
        StripDomain(-0.1)


def test_hinf_strip_norm_of_unit_shifts():
    q = 2
    eps = 0.3
    # positive shift: the symbol q^{-iz} has modulus q^{v} <= 1 on v <= 0
    assert hinf_strip_norm(delta_z(q, 1), eps) == pytest.approx(1.0, abs=1e-12)
    # negative shift: modulus q^{-v} peaks at the bottom line
    assert hinf_strip_norm(delta_z(q, -1), eps) == pytest.approx(q**eps, rel=1e-12)


def test_hinf_strip_norm_difference_kernel():
    # symbol 1 - q^{-2iz}: sup 2 attained on the real line
    F = zkernel(2, [1.0, 0.0, -1.0])
    assert hinf_strip_norm(F, 0.3) == pytest.approx(2.0, rel=1e-12)


def test_strip_norm_controls_coefficient_decay():
    rng = np.random.default_rng(71)
    eps = 0.3
    for _ in range(10):
        vals = rng.normal(size=11) + 1j * rng.normal(size=11)
        F = ZKernel(tree_params(2), -5, vals)
        H = hinf_strip_norm(F, eps)
        for d in range(-5, 6):
            assert abs(F.at(d)) <= H * 2.0 ** (d * eps) * (1.0 + 1e-12)


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
        truncation_bound(delta_z(2, 0), -1, 0.3, 1.5)


def test_hilbert_witness_grows_past_log():
    prev = 0.0
    for n in (64, 256, 1024):
        lower, logn = hilbert_witness(2, n)
        assert type(lower) is float
        assert lower >= logn
        assert lower > prev
        prev = lower


def test_hilbert_witness_rejects_empty_support():
    with pytest.raises(DomainError):
        hilbert_witness(2, 0)
