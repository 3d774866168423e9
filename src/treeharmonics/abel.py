"""Abel transform between radial kernels and even sequences on the integers.

Summing a radial kernel over a horocycle — with the horocyclic shell
masses ``mu_m`` — and scaling by ``q^{-j/2}`` produces an *even*, finitely
supported sequence, the Abel transform.  Composed with the Fourier
transform on the integers it factorizes the spherical transform:
``FT(Abel k) = spherical transform of k``.  The forward map is triangular
in the kernel values, so it inverts exactly by back-substitution.

The factorization is the production route: every evaluation of ``FT k``
goes through the closed-form geometric series (:func:`abel_forward`).
The census summation over an explicit ball (:func:`abel_bruteforce`,
:func:`horocycle_slice_sum`), exact for rational inputs, is the
independent check.
"""

from dataclasses import dataclass

import numpy as np

from .params import DomainError, tree_params
from .spherical import RadialKernel
from .zline import ZKernel


@dataclass(frozen=True)
class AbelSequence:
    """Even finitely supported sequence ``a_j``, stored two-sided.

    ``values[i]`` is the coefficient at ``j = i - support_radius``.  The
    forward transform produces mirror-identical halves; the evenness
    defect is exposed as :attr:`weyl_residual` so it can be *checked*
    downstream rather than assumed.
    """

    params: object
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", tree_params(self.params))
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size % 2 != 1:
            raise DomainError("two-sided coefficients must form an odd-length 1-d array")
        object.__setattr__(self, "values", vals)

    @property
    def support_radius(self):
        return (self.values.size - 1) // 2

    def at(self, j):
        i = int(j) + self.support_radius
        if 0 <= i < self.values.size:
            return complex(self.values[i])
        return 0.0 + 0.0j

    @property
    def weyl_residual(self):
        """Max evenness defect ``|a_j - a_{-j}|`` over the stored window."""
        return float(np.max(np.abs(self.values - self.values[::-1])))

    @property
    def is_even(self):
        return self.weyl_residual == 0.0

    def to_zkernel(self, delta=0.0):
        """The shifted coefficients ``a_j q^{j delta}`` as a kernel on the integers.

        The kernel starts at ``-support_radius``.  Its symbol is the
        symbol of ``a`` on the line ``Im z = delta``.  Coefficients that
        overflow float64 raise :class:`~treeharmonics.params.DomainError`.
        """
        J = self.support_radius
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.values * self.params.qpow(np.arange(-J, J + 1) * delta)
        if not np.isfinite(values).all():
            raise DomainError(f"the shifted Abel coefficients at delta={delta:g} overflow float64")
        return ZKernel(self.params, -J, values)


def abel_forward(kernel):
    """Abel transform ``a_j = q^{|j|/2} [k(|j|) + (1 - 1/q) sum_i q^i k(|j| + 2i)]``.

    This is the horocycle sum ``q^{-j/2} sum_m mu_m k(max(2m - j, j))``
    collapsed through the shell masses; the two half-axes collapse to the
    *same* expression in ``|j|``, which is how evenness enters.  The
    returned sequence stores bit-identical mirror halves; the independent
    census route (:func:`abel_bruteforce`) validates the collapse.
    Coefficients that overflow float64 raise
    :class:`~treeharmonics.params.DomainError`.
    """
    q = kernel.params.q
    D = kernel.radius
    kv = kernel.values
    reduced = np.empty(D + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(D + 1):
            acc = kv[t]
            weight = 1.0
            for i in range(1, (D - t) // 2 + 1):
                weight = weight * q if i > 1 else (q - 1.0)
                acc += weight * kv[t + 2 * i]
            reduced[t] = acc
        half = reduced * kernel.params.qpow(np.arange(D + 1) / 2.0)
    if not np.isfinite(half).all():
        raise DomainError("the Abel coefficients overflow float64")
    values = np.concatenate([half[:0:-1], half])
    return AbelSequence(kernel.params, values)


def abel_inverse(seq):
    """Recover the radial kernel by triangular back-substitution.

    In the rescaled variables ``r_t = a_t q^{-t/2}`` the forward relation
    telescopes to ``r_t - q r_{t+2} = k(t) - k(t+2)``, so the kernel is
    recovered from the top index downward; the roundtrip with
    :func:`abel_forward` is exact in exact arithmetic.  Non-even input is
    rejected.
    """
    if seq.weyl_residual != 0.0:
        raise DomainError(
            f"cannot invert an uneven sequence (evenness defect {seq.weyl_residual:g})"
        )
    q = seq.params.q
    J = seq.support_radius
    r = np.array([seq.at(t) for t in range(J + 1)], dtype=complex)
    r *= seq.params.qpow(-np.arange(J + 1) / 2.0)
    k = np.zeros(J + 1, dtype=complex)
    k[J] = r[J]
    if J >= 1:
        k[J - 1] = r[J - 1]
    for t in range(J - 2, -1, -1):
        k[t] = r[t] - q * r[t + 2] + k[t + 2]
    return RadialKernel(seq.params, k)


# ---------------------------------------------------------------------------
# Census route
# ---------------------------------------------------------------------------

def ball_shell_masses(ball):
    """Shell masses ``mu_m`` read off the ball's census at height 0.

    The census row ``(0, 2m, m, count)`` has ``count = mu_m`` by the cell
    model; extracting the masses from the explicit ball keeps this route
    independent of the closed-form mass formula.
    """
    rows = ball.census()
    at_zero = rows[rows[:, 0] == 0]
    masses = {}
    for h, d, m, count in at_zero:
        masses[int(m)] = int(count)
    return [masses[m] for m in range(0, max(masses) + 1)]


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
    masses = ball_shell_masses(ball)
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
