"""Acceptance gate: one test per advertised guarantee, at the stated tolerance.

Each test prints a single ``criterion N: PASS`` line on success (visible
with ``pytest -s``); a failure shows up as the test's FAIL line under
``pytest -v``.  Criteria are deliberately re-stated here rather than
imported from the library so the gate cannot drift with refactors.
"""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import treeharmonics
from treeharmonics.abel import abel_forward, horocycle_slice_sum
from treeharmonics.engine import (
    bounds_report,
    line_profile,
    transference_check,
)
from treeharmonics.params import torus_grid, tree_params
from treeharmonics.spherical import (
    ball_kernel,
    delta_kernel,
    radial_kernel,
    spectral_eigenvalue,
    sphere_sizes,
    spherical_function,
    spherical_transform,
    inverse_spherical_transform,
    spherical_transform_at,
)
from treeharmonics.serialize import write_kernel
from treeharmonics.tree import ball_geometry, census_cells, haar_residual, opnorm_lower
from treeharmonics.zline import (
    ZKernel,
    convolutor_interval,
    fourier_z,
    hilbert_witness,
    hinf_strip_norm,
    truncate,
    truncation_bound,
)


def test_criterion_01_geometry_census_haar():
    rng = np.random.default_rng(1)
    for q in (2, 3):
        ball = ball_geometry(q, 8)
        # distance from horocyclic coordinates, every vertex, exact integers
        depth = np.maximum(2 * ball.merge - ball.height, ball.height)
        assert np.array_equal(depth, ball.depth)
        # census against the closed-form shell model, integer equality
        assert np.array_equal(ball.census(), census_cells(q, 8))
        # exact Haar reassembly on 25 random rational inputs per degree
        for _ in range(25):
            vals = [
                Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 13)))
                for _ in range(ball.size)
            ]
            assert haar_residual(ball, vals) == 0
    print("criterion 1: PASS — geometry, census, and Haar residual exact (q in {2,3}, R=8)")


def test_criterion_02_c_function_and_spherical_functions():
    rng = np.random.default_rng(2)
    for q in (2, 3):
        params = tree_params(q)
        tau = params.period
        # c(z) + c(-z) = 1 on 100 random points, error <= 1e-12
        pts = []
        while len(pts) < 100:
            z = complex(rng.uniform(-tau, tau), rng.uniform(-0.45, 0.45))
            if abs(z - round(z.real / (tau / 2)) * tau / 2) > 1e-3:
                pts.append(z)
        z = np.array(pts)
        from treeharmonics.spherical import c_function

        assert np.abs(c_function(params, z) + c_function(params, -z) - 1.0).max() <= 1e-12
        # eigenfunction identity for d <= 12, error <= 1e-10
        gamma = spectral_eigenvalue(params, z)
        d = np.arange(13)
        phi = spherical_function(params, z[:, None], d[None, :])
        lhs = (q * phi[:, 2:] + phi[:, :-2]) / (q + 1.0)
        assert np.abs(lhs - gamma[:, None] * phi[:, 1:-1]).max() <= 1e-10
        # |phi_z(d)| <= 1 + 1e-12 on a closed-strip sample grid
        s = np.linspace(-tau / 2, tau / 2, 21)
        v = np.linspace(-0.5, 0.5, 11)
        zz = (s[:, None] + 1j * v[None, :]).ravel()
        dd = np.arange(0, 31)
        vals = spherical_function(params, zz[:, None], dd[None, :])
        assert np.abs(vals).max() <= 1.0 + 1e-12
    print("criterion 2: PASS — c-sum 1e-12, eigen identity 1e-10, strip bound 1+1e-12")


def test_criterion_03_transform_roundtrip():
    rng = np.random.default_rng(3)
    worst = 0.0
    for q in (2, 3):
        for _ in range(25):
            D = int(rng.integers(0, 9))
            k = radial_kernel(q, rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1))
            back = inverse_spherical_transform(spherical_transform(k, 512), D)
            worst = max(worst, float(np.abs(back.values - k.values).max()))
    assert worst <= 1e-9
    print(f"criterion 3: PASS — 50-kernel roundtrip at N=512, max error {worst:.3e}")


def test_criterion_04_abel_factorization_and_census():
    rng = np.random.default_rng(4)
    # factorization through the integer Fourier transform, 64-point grids,
    # against the phi-sum sum_d |S_d| k(d) phi_z(d); off the real line the
    # transform itself is checked against the phi-sum
    for q in (2, 3):
        params = tree_params(q)
        grid = torus_grid(params, 64)
        strip = grid[::4] + 1j * rng.uniform(-1.0, 1.0, size=16)
        for _ in range(10):
            D = int(rng.integers(0, 5))
            k = radial_kernel(q, rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1))
            weights = sphere_sizes(params, D) * k.values
            d = np.arange(D + 1)
            lhs = fourier_z(abel_forward(k), grid)
            rhs = spherical_function(params, grid[:, None], d[None, :]) @ weights
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, float(np.abs(rhs).max()))
            phi = spherical_function(params, strip[:, None], d[None, :])
            envelope = np.abs(phi) @ np.abs(weights)
            assert np.all(np.abs(spherical_transform_at(k, strip) - phi @ weights) <= 1e-13 * envelope)
    # census brute force equals the collapsed geometric series, exact rationals
    for q in (2, 3):
        ball = ball_geometry(q, 10)
        for D in range(0, 5):
            vals = [Fraction(int(rng.integers(-9, 10)), 4) for _ in range(D + 1)]
            reduced = [
                vals[t]
                + (q - 1) * sum(Fraction(q) ** (i - 1) * vals[t + 2 * i]
                                for i in range(1, (D - t) // 2 + 1))
                for t in range(D + 1)
            ]
            for j in range(-6, 7):
                want = (Fraction(q) ** j if j >= 0 else 1) * (
                    reduced[abs(j)] if abs(j) <= D else Fraction(0)
                )
                assert horocycle_slice_sum(ball, vals, j) == want
    print("criterion 4: PASS — factorization 1e-10; census route exact on rationals")


def test_criterion_05_reconstruction_identity():
    rng = np.random.default_rng(5)
    for q in (2, 3):
        params = tree_params(q)
        for p in (1.0, 4.0 / 3.0, 1.5):
            D = int(rng.integers(0, 5))
            k = radial_kernel(q, rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1))
            phi = line_profile(k, p)
            L = phi.offset + phi.values.size - 1
            for d in range(0, D + 1):
                assert abs(params.qpow(-d / p) * phi.at(d) - k.at(d)) <= 1e-8
            for d in range(D + 1, L + 1):
                assert abs(phi.at(d)) <= 1e-8
    print("criterion 5: PASS — weighted reconstruction for d <= D, tails <= 1e-8")


def test_criterion_06_two_sided_sandwich():
    rng = np.random.default_rng(6)
    checked = 0
    for q in (2, 3):
        kernels = {
            "delta": delta_kernel(q),
            "ball1": ball_kernel(q, 1),
            "ball2": ball_kernel(q, 2),
            "random": radial_kernel(q, rng.uniform(0.1, 1.0, size=4)),
        }
        for name, k in kernels.items():
            for p in (1.0, 4.0 / 3.0, 1.5, 3.0, 4.0):
                rep = bounds_report(k, p, radius=10)
                slack = rep.total_upper - rep.compression_lower
                assert slack >= -1e-12 * max(1.0, rep.total_upper), (q, name, p)
                if p == 1.0:
                    # R = 10 >= D + 1 everywhere here: equality to 1e-12
                    assert slack <= 1e-12 * max(1.0, rep.total_upper), (q, name)
                checked += 1
    assert checked == 40
    # p = 2 convenience oracle: compression at q=2, R=14 reaches 95% of 1+2*sqrt(2)
    lower, _ = opnorm_lower(ball_kernel(2, 1), 2.0, 14)
    assert lower >= 0.95 * (1.0 + 2.0 * math.sqrt(2.0))
    print("criterion 6: PASS — 40-case sandwich, p=1 equality, p=2 compression at 95%")


def test_criterion_07_truncation_bound():
    rng = np.random.default_rng(7)
    params = tree_params(2)
    eps = 0.3
    for _ in range(20):
        vals = rng.normal(size=11) + 1j * rng.normal(size=11)
        F = ZKernel(params, -5, vals)
        H = hinf_strip_norm(F, eps)
        for d in range(-5, 6):
            assert abs(F.at(d)) <= H * 2.0 ** (d * eps) * (1.0 + 1e-12)
        for p in (1.0, 1.5):
            for J in range(0, 7):
                bound = truncation_bound(F, J, eps, p)
                iv = convolutor_interval(truncate(F, J), p)
                assert iv.lower <= bound * (1.0 + 1e-12)
    print("criterion 7: PASS — truncation bound dominates certified lowers; strip decay")


def test_criterion_08_transference():
    rng = np.random.default_rng(8)
    for i in range(100):
        q = int(rng.choice([2, 3]))
        D = int(rng.integers(0, 4))
        R = int(rng.integers(D + 1, 9))
        p = float(rng.choice([4.0 / 3.0, 1.5]))
        ball = ball_geometry(q, R)
        k = radial_kernel(q, rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1))
        f = rng.normal(size=ball.size) + 1j * rng.normal(size=ball.size)
        f[ball.depth > R - D] = 0.0
        rec = transference_check(k, ball, f, p)
        assert rec["lhs"] <= rec["rhs"] + 1e-12 * max(1.0, rec["rhs"]), (i, q, D, R, p)
    print("criterion 8: PASS — 100/100 layered-convolution inequalities")


def test_criterion_09_unbounded_truncation_witness():
    previous = -math.inf
    for n in (64, 256, 1024):
        lower, log_n = hilbert_witness(2, n)
        assert lower >= log_n
        assert lower > previous
        previous = lower
    print("criterion 9: PASS — truncated reciprocal kernel lower bounds exceed log N")


def test_criterion_10_deterministic_reports(tmp_path):
    kpath = tmp_path / "k.json"
    write_kernel(ball_kernel(2, 2), kpath)
    argv = ["check", "--kernel", str(kpath), "--p", "1.5", "--radius", "7"]
    src = str(pathlib.Path(treeharmonics.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        # a fresh process, so the thread-pool size is read when numpy loads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "treeharmonics.cli"] + argv,
            env=env, capture_output=True, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    print("criterion 10: PASS — reports are byte-identical at 1 and 2 BLAS threads")
