"""Abel transform between radial kernels and even sequences on the integers.

Summing a radial kernel over a horocycle — with the horocyclic shell
masses ``mu_m`` — and scaling by ``q^{-j/2}`` produces an *even*, finitely
supported sequence, the Abel transform, held as a
:class:`~treeharmonics.zline.ZKernel` on ``[-D, D]`` whose evenness
defect is :func:`weyl_residual`.  Composed with the Fourier
transform on the integers it factorizes the spherical transform:
``FT(Abel k) = spherical transform of k``.  The forward map is triangular
in the kernel values, so it inverts exactly by back-substitution.

The factorization is the production route: every evaluation of ``FT k``
goes through the closed-form geometric series (:func:`abel_forward`).
The census summation over an explicit ball (:func:`abel_bruteforce`,
:func:`horocycle_slice_sum`), exact for rational inputs, is the
independent check.
"""

import numpy as np

from .params import DomainError
from .spherical import RadialKernel
from .zline import _built


def weyl_residual(seq):
    """Evenness defect ``max |a_j - a_{-j}|`` of a sequence stored on ``[-J, J]``."""
    return float(np.maximum.reduce(np.abs(seq.values - seq.values[::-1])))


def abel_forward(kernel):
    """Abel transform ``a_j = q^{|j|/2} [k(|j|) + (1 - 1/q) sum_i q^i k(|j| + 2i)]``.

    This is the horocycle sum ``q^{-j/2} sum_m mu_m k(max(2m - j, j))``
    collapsed through the shell masses; the two half-axes collapse to the
    *same* expression in ``|j|``, which is how evenness enters.  The
    sequence is returned as a :class:`~treeharmonics.zline.ZKernel` on
    ``[-D, D]`` whose mirror halves are bit-identical; the independent
    census route (:func:`abel_bruteforce`) validates the collapse.
    Coefficients that overflow float64 raise
    :class:`~treeharmonics.params.DomainError`.
    """
    q = kernel.params.q
    D = kernel.radius
    kv = kernel.values
    reduced = kv.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        # term i of every index t at once, in the order of the sum over i
        weight = q - 1.0
        for i in range(1, D // 2 + 1):
            reduced[: D + 1 - 2 * i] += weight * kv[2 * i :]
            weight = weight * q
        half = reduced * kernel.params.qpow(np.arange(D + 1) / 2.0)
    if not np.isfinite(half).all():
        raise DomainError("the Abel coefficients overflow float64")
    return _built(kernel.params, -D, np.concatenate([half[:0:-1], half]))


def abel_inverse(seq):
    """Recover the radial kernel by triangular back-substitution.

    In the rescaled variables ``r_t = a_t q^{-t/2}`` the forward relation
    telescopes to ``r_t - q r_{t+2} = k(t) - k(t+2)``, so the kernel is
    recovered from the top index downward; the roundtrip with
    :func:`abel_forward` is exact in exact arithmetic.  A sequence not
    stored on a window ``[-J, J]``, or not even there, is rejected.
    """
    J = -seq.offset
    if seq.support != (-J, J):
        raise DomainError(f"an Abel sequence is stored on [-J, J], got the window {seq.support}")
    defect = weyl_residual(seq)
    if defect != 0.0:
        raise DomainError(f"cannot invert an uneven sequence (evenness defect {defect:g})")
    q = seq.params.q
    r = (seq.values[J:] * seq.params.qpow(-np.arange(J + 1) / 2.0)).tolist()
    k = r[:]  # the top two entries are r's; the rest are overwritten downward
    for t in range(J - 2, -1, -1):
        k[t] = r[t] - q * r[t + 2] + k[t + 2]
    return RadialKernel(seq.params, k)


# ---------------------------------------------------------------------------
# Census route
# ---------------------------------------------------------------------------

def horocycle_slice_sum(ball, values, j):
    """Exact horocycle sum ``sum_m mu_m k(max(2m - j, j))`` over census masses.

    ``values`` may hold any numeric type (``fractions.Fraction`` included);
    arithmetic is whatever the inputs support, so rational inputs give an
    exact rational result.  Requires ``|j| + D <= ball.radius`` so every
    contributing shell mass is present in the census.
    """
    j = int(j)
    D = len(values) - 1
    if abs(j) + D > ball.radius:
        raise DomainError(
            f"need |j| + D <= ball radius ({abs(j)} + {D} > {ball.radius}): "
            "census shells would be incomplete"
        )
    # mu_m from the explicit ball's census rows (0, 2m, m, mu_m), in order of m
    masses = [int(count) for h, _, _, count in ball.census() if h == 0]
    total = 0
    for m in range(0, (D + j) // 2 + 1 if j >= -D else 0):
        d = max(2 * m - j, j)
        if 0 <= d <= D:
            total = total + masses[m] * values[d]
    return total


def abel_bruteforce(ball, kernel, j):
    """Abel coefficient ``q^{-j/2} sum_m mu_m k(max(2m - j, j))`` via the census.

    Independent of :func:`abel_forward`: the shell masses come from the
    explicit ball census and the max-law supplies the integrand, with no
    collapsing of the two half-axes.
    """
    if kernel.params.q != ball.params.q:
        raise DomainError("kernel and ball live on trees of different degree")
    s = horocycle_slice_sum(ball, list(kernel.values), j)
    return complex(ball.params.qpow(-j / 2.0) * s)
