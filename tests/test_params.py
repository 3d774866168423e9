"""Parameter object, exponent arithmetic, and grid validation."""

import math

import numpy as np
import pytest

from treeharmonics.params import (
    DomainError,
    TreeParams,
    check_grid,
    dual_exponent,
    strip_halfwidth,
    torus_grid,
    tree_params,
)


def test_tree_params_accepts_integer_degrees():
    for q in (2, 3, 5, 17, np.int64(4)):
        params = tree_params(q)
        assert params.q == int(q)
        assert isinstance(params.q, int)


def test_tree_params_rejects_bad_degrees():
    for bad in (1, 0, -3, 2.0, 2.5, True, "2", None):
        with pytest.raises(DomainError):
            TreeParams(bad)


def test_tree_params_refuses_a_degree_float64_cannot_hold():
    # q - 1.0 and every spectral constant need q as a float64
    assert tree_params(2**1023).q == 2**1023
    for bad in (2**1024, 10**309, 10**5000):
        with pytest.raises(DomainError, match="below 2\\*\\*1024"):
            TreeParams(bad)


def test_tree_params_idempotent_coercion():
    params = tree_params(3)
    assert tree_params(params) is params


def test_period_and_plancherel_constants():
    for q in (2, 3, 7):
        params = tree_params(q)
        assert params.period * params.log_q == pytest.approx(2.0 * math.pi, rel=1e-15)
        # 2 c_G tau collapses to q / (q + 1)
        assert 2.0 * params.plancherel_const * params.period == pytest.approx(
            q / (q + 1.0), rel=1e-15
        )


def test_qpow_matches_exp():
    params = tree_params(3)
    w = np.array([-1.5, 0.0, 0.5, 2.0])
    assert np.allclose(params.qpow(w), 3.0**w, rtol=1e-15)
    assert params.qpow(1j).real == pytest.approx(math.cos(math.log(3)))


def test_dual_exponent_pairs_and_involution():
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(4.0 / 3.0) == pytest.approx(4.0, rel=1e-15)
    for p in (1.1, 1.5, 2.5, 3.0, 10.0):
        assert dual_exponent(dual_exponent(p)) == pytest.approx(p, rel=1e-14)
        assert 1.0 / p + 1.0 / dual_exponent(p) == pytest.approx(1.0, rel=1e-14)


def test_strip_halfwidth_values():
    assert strip_halfwidth(1.0) == 0.5
    assert strip_halfwidth(math.inf) == 0.5
    assert strip_halfwidth(2.0) == 0.0
    assert strip_halfwidth(1.5) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert strip_halfwidth(3.0) == pytest.approx(strip_halfwidth(1.5), abs=1e-15)
    with pytest.raises(DomainError):
        strip_halfwidth(0.5)


def test_torus_grid_covers_one_period():
    params = tree_params(2)
    for n in (64, 256):
        s = torus_grid(params, n)
        assert s.size == n
        assert s[0] == pytest.approx(-params.period / 2.0)
        steps = np.diff(s)
        assert np.allclose(steps, params.period / n, rtol=1e-14)
        # half-open interval: the right endpoint is not included
        assert s[-1] < params.period / 2.0


def test_check_grid_accepts_powers_of_two():
    for n in (64, 128, 512, 1 << 14, np.int32(256)):
        assert check_grid(n) == int(n)


def test_check_grid_rejects_everything_else():
    for bad in (63, 96, 100, 32, 0, -64, 64.0, True, "64"):
        with pytest.raises(DomainError):
            check_grid(bad)
