"""Abel transform: dual evaluation routes, evenness, inversion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import fraction_slice_sum, loop_abel_coefficients
from treeharmonics.abel import (
    abel_bruteforce,
    abel_forward,
    abel_inverse,
    horocycle_slice_sum,
    weyl_residual,
)
from treeharmonics.params import DomainError, torus_grid, tree_params
from treeharmonics.spherical import (
    ball_kernel,
    delta_kernel,
    radial_kernel,
    sphere_kernel,
    sphere_sizes,
    spherical_function,
    spherical_transform_at,
)
from treeharmonics.tree import ball_geometry, shell_masses
from treeharmonics.zline import ZKernel, fourier_z, zkernel


def random_kernel(rng, q, D):
    vals = rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
    return radial_kernel(q, vals)


# ---------------------------------------------------------------------------
# Forward transform
# ---------------------------------------------------------------------------

def test_forward_of_delta_is_delta():
    seq = abel_forward(delta_kernel(2))
    assert seq.support == (0, 0)
    assert seq.values.tolist() == [1.0 + 0.0j]


def test_forward_returns_a_centred_kernel_on_the_integers():
    for q in (2, 3):
        for D in range(5):
            seq = abel_forward(ball_kernel(q, D))
            assert type(seq) is ZKernel
            assert seq.params.q == q and seq.offset == -D and seq.support == (-D, D)


def test_forward_of_unit_ball_has_frozen_values():
    seq = abel_forward(ball_kernel(2, 1))
    # a_0 = k(0) + (q-1) k(2) = 1;  a_{+-1} = sqrt(q) k(1) = sqrt(2)
    assert seq.at(0) == pytest.approx(1.0, abs=1e-15)
    assert seq.at(1) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert seq.at(-1) == seq.at(1)


def test_forward_of_unit_sphere():
    seq = abel_forward(sphere_kernel(2, 1))
    assert seq.at(0) == 0.0
    assert seq.at(1) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_forward_is_exactly_even():
    rng = np.random.default_rng(79)
    for q in (2, 3, 5):
        for _ in range(6):
            seq = abel_forward(random_kernel(rng, q, int(rng.integers(0, 9))))
            assert weyl_residual(seq) == 0.0


def test_abel_coefficients_that_overflow_are_refused():
    # the weights (q - 1) and q^{|j|/2} carry 9e307 past the float64 limit
    for values in ([0.0, 0.0, 9e307], [9e307, 0.0, 9e307]):
        with pytest.raises(DomainError, match="overflow"):
            abel_forward(radial_kernel(2, values))


def test_forward_keeps_the_bytes_of_the_per_index_loop():
    # one vector add per term must add in the loop's order, and overflow
    # exactly where it does
    rng = np.random.default_rng(97)
    overflowed = 0
    for i in range(400):
        q = int(rng.choice([2, 3, 5, 7, 50]))
        D = int(rng.integers(0, 40))
        vals = rng.normal(size=D + 1) + (i % 2) * 1j * rng.normal(size=D + 1)
        kernel = radial_kernel(q, vals * 10.0 ** rng.uniform(-300, 300))
        want = loop_abel_coefficients(kernel)
        if want is None:
            overflowed += 1
            with pytest.raises(DomainError, match="overflow"):
                abel_forward(kernel)
        else:
            assert abel_forward(kernel).values[kernel.radius :].tobytes() == want.tobytes()
    assert 0 < overflowed < 400


def test_sequence_container_basics():
    seq = zkernel(2, [2.0, 1.0, 2.0], offset=-1)
    assert seq.support == (-1, 1)
    assert seq.at(-1) == 2.0 and seq.at(0) == 1.0 and seq.at(5) == 0.0
    Z = seq.shifted(0.0)
    assert Z.offset == -1 and Z.values.tolist() == [2.0, 1.0, 2.0]
    assert weyl_residual(seq) == 0.0
    assert np.abs(abel_forward(abel_inverse(seq)).values - seq.values).max() <= 1e-15
    # an even-length window has no centre to invert about
    with pytest.raises(DomainError, match="window"):
        abel_inverse(zkernel(2, [1.0, 2.0], offset=-1))


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------

def test_roundtrip_recovers_kernels():
    rng = np.random.default_rng(83)
    worst = 0.0
    for q in (2, 3, 5):
        for _ in range(10):
            k = random_kernel(rng, q, int(rng.integers(0, 11)))
            seq = abel_forward(k)
            back = abel_inverse(seq)
            scale = max(1.0, float(np.abs(seq.values).max()))
            err = float(np.abs(back.values - k.values).max()) / scale
            worst = max(worst, err)
    assert worst <= 1e-14, f"relative roundtrip error {worst}"


def test_inverse_rejects_uneven_sequences():
    seq = zkernel(2, [1.0, 0.0, 2.0], offset=-1)
    assert weyl_residual(seq) == 1.0
    with pytest.raises(DomainError, match="uneven"):
        abel_inverse(seq)


def test_inverse_rejects_windows_not_centred_at_zero():
    # [1, 0, 1] is even about 1, not about 0
    for offset in (0, -2, 3):
        with pytest.raises(DomainError, match="window"):
            abel_inverse(zkernel(2, [1.0, 0.0, 1.0], offset=offset))
    with pytest.raises(DomainError, match="window"):
        abel_inverse(zkernel(2, [1.0, 1.0, 1.0, 1.0], offset=-1))


# ---------------------------------------------------------------------------
# Census route against the closed form and the exact oracle
# ---------------------------------------------------------------------------

def test_ball_shell_masses_match_closed_form():
    for q, R in ((2, 6), (3, 5)):
        # the explicit ball's census rows at height 0 are (0, 2m, m, mu_m)
        rows = ball_geometry(q, R).census()
        at_zero = rows[rows[:, 0] == 0]
        assert at_zero[:, 2].tolist() == list(range(R // 2 + 1))
        assert at_zero[:, 1].tolist() == list(range(0, R + 1, 2))
        want = shell_masses(q, R // 2)
        assert at_zero[:, 3].tolist() == [int(x) for x in want]


def test_slice_sum_matches_fraction_oracle():
    rng = np.random.default_rng(89)
    for q in (2, 3):
        ball = ball_geometry(q, 10)
        for D in range(0, 5):
            vals = [Fraction(int(rng.integers(-9, 10)), 3) for _ in range(D + 1)]
            for j in range(-6, 7):
                got = horocycle_slice_sum(ball, vals, j)
                want = fraction_slice_sum(q, vals, j)
                assert got == want, f"q={q} D={D} j={j}"


def test_bruteforce_matches_closed_form_exactly_on_rationals():
    rng = np.random.default_rng(97)
    for q in (2, 3):
        ball = ball_geometry(q, 10)
        for D in range(0, 5):
            vals = [Fraction(int(rng.integers(-9, 10)), 2) for _ in range(D + 1)]
            kernel = radial_kernel(q, [float(v) for v in vals])
            seq = abel_forward(kernel)
            for j in range(-6, 7):
                # compare the exact census sum against the closed form,
                # scaled to clear the q^{-j/2} prefactor
                S = fraction_slice_sum(q, vals, j)
                closed = seq.at(j) * ball.params.qpow(j / 2.0)
                assert abs(complex(S) - closed) <= 1e-10 * max(1.0, abs(S)), (
                    f"q={q} D={D} j={j}"
                )


def test_bruteforce_prefactor_route():
    ball = ball_geometry(2, 8)
    kernel = ball_kernel(2, 2)
    seq = abel_forward(kernel)
    for j in range(-6, 7):
        got = abel_bruteforce(ball, kernel, j)
        assert abs(got - seq.at(j)) <= 1e-12


def test_slice_sum_evenness_identity():
    # the raw slice sums obey S(j) = q^j S(-j) exactly
    rng = np.random.default_rng(101)
    for q in (2, 3):
        ball = ball_geometry(q, 10)
        vals = [Fraction(int(rng.integers(-9, 10))) for _ in range(4)]
        for j in range(0, 7):
            S_pos = horocycle_slice_sum(ball, vals, j)
            S_neg = horocycle_slice_sum(ball, vals, -j)
            assert S_pos == Fraction(q) ** j * S_neg


def test_slice_sum_guards_incomplete_census():
    ball = ball_geometry(2, 3)
    with pytest.raises(DomainError):
        horocycle_slice_sum(ball, [1.0, 1.0], 3)


# ---------------------------------------------------------------------------
# Factorization through the integer Fourier transform
# ---------------------------------------------------------------------------

def test_abel_factorizes_the_spherical_transform():
    # the right-hand side is the phi-sum sum_d |S_d| k(d) phi_z(d), which
    # shares no code with abel_forward; spherical_transform_at is built
    # from abel_forward, so it is checked against the phi-sum off the real line
    rng = np.random.default_rng(103)
    for q in (2, 3):
        params = tree_params(q)
        grid = torus_grid(params, 64)
        strip = grid[::4] + 1j * rng.uniform(-1.0, 1.0, size=16)
        for _ in range(8):
            k = random_kernel(rng, q, int(rng.integers(0, 5)))
            d = np.arange(k.radius + 1)
            weights = sphere_sizes(params, k.radius) * k.values
            lhs = fourier_z(abel_forward(k), grid)
            rhs = spherical_function(params, grid[:, None], d[None, :]) @ weights
            scale = max(1.0, float(np.abs(rhs).max()))
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale
            phi = spherical_function(params, strip[:, None], d[None, :])
            envelope = np.abs(phi) @ np.abs(weights)
            assert np.all(np.abs(spherical_transform_at(k, strip) - phi @ weights) <= 1e-13 * envelope)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: abel_bruteforce(ball_geometry(2, 3), ball_kernel(3, 1), 0),
         "kernel and ball live on trees of different degree"),
        (lambda: horocycle_slice_sum(ball_geometry(2, 3), [1, 2, 3], 2),
         "need |j| + D <= ball radius (2 + 2 > 3): census shells would be incomplete"),
    ],
)
def test_census_route_refuses_invalid_input_with_its_message(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
