"""Branching parameters and the spectral geometry they induce.

A homogeneous tree of degree ``q`` is the infinite tree in which every
vertex has exactly ``q + 1`` neighbours.  All spectral quantities of the
tree are periodic in the frequency variable with period ``2*pi/log(q)``,
so the natural frequency domain is a torus of that circumference.  This
module holds the parameter object shared by every other module, plus the
small exponent arithmetic (dual exponents, strip half-widths) that the
multiplier machinery uses throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

#: Evaluating the meromorphic density ``c`` closer than this to one of its
#: real poles is refused; callers get the distance in the error message.
POLE_GUARD = 1e-8


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ScopeError(ValueError):
    """The request is outside the certified scope (for example ``p == 2``)."""


class SoundnessError(RuntimeError):
    """A certified lower bound exceeded a certified upper bound."""


@dataclass(frozen=True)
class TreeParams:
    """Degree parameter of a homogeneous tree.

    Parameters
    ----------
    q : int
        Branching number; every vertex has ``q + 1`` neighbours.  Must be
        an integer ``>= 2`` that float64 holds, below ``2**1024``.
    """

    q: int
    #: ``log(q)``, the frequency scale of every spectral quantity; computed once.
    log_q: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.q, (int, np.integer)) or isinstance(self.q, bool):
            raise DomainError(f"branching number must be an integer, got {self.q!r}")
        if self.q < 2:
            raise DomainError(f"branching number must be >= 2, got {self.q}")
        object.__setattr__(self, "q", int(self.q))
        if self.q >= 1 << 1024:
            # no float64 holds q; the digits of such a q may be too many to print
            raise DomainError(
                f"branching number must be below 2**1024, got one of {self.q.bit_length()} bits"
            )
        object.__setattr__(self, "log_q", math.log(self.q))

    @property
    def period(self):
        """Circumference ``2*pi/log(q)`` of the frequency torus."""
        return 2.0 * math.pi / self.log_q

    @property
    def plancherel_const(self):
        """Normalising constant ``q*log(q) / (4*pi*(q+1))`` of the inversion density."""
        return self.q * self.log_q / (4.0 * math.pi * (self.q + 1.0))

    def qpow(self, w):
        """``q**w`` for real or complex ``w`` (scalar or array)."""
        return np.exp(np.asarray(w) * self.log_q)


def tree_params(q):
    """Coerce ``q`` into a validated :class:`TreeParams`."""
    if isinstance(q, TreeParams):
        return q
    return TreeParams(q)


def check_exponent(p):
    """Validate a Lebesgue exponent ``p`` in ``[1, inf]``.

    ``math.inf`` is accepted.  Returns ``p`` as a float so downstream
    arithmetic never sees an integer surprise.
    """
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"p must lie in [1.0, inf], got {p}")
    return p


def dual_exponent(p):
    """Conjugate exponent ``p' = p/(p-1)`` with the usual conventions at 1 and inf."""
    p = check_exponent(p)
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def strip_halfwidth(p):
    """Distance ``|1/p - 1/2|`` from ``p`` to 2 on the reciprocal scale.

    This is the half-width of the strip of frequencies on which the
    multiplier machinery for exponent ``p`` lives; it is 1/2 at ``p`` in
    ``{1, inf}`` and 0 at ``p == 2``.
    """
    p = check_exponent(p)
    if math.isinf(p):
        return 0.5
    return abs(1.0 / p - 0.5)


def torus_grid(params, n):
    """Uniform grid of ``n`` frequencies covering ``[-period/2, period/2)``."""
    params = tree_params(params)
    n = check_grid(n)
    tau = params.period
    return -tau / 2.0 + tau * np.arange(n) / n


def check_grid(n):
    """Validate a quadrature size: a power of two, at least 64."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n < 64 or (n & (n - 1)) != 0:
        raise DomainError(f"grid size must be a power of two >= 64, got {n}")
    return n
