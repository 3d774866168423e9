"""A robustness ceiling: a seeded fuzz of 3,000 reports across scales and exponents.

Every report of :func:`fuzz_cases` must be finite or raise a documented
:class:`~treeharmonics.params.DomainError` or
:class:`~treeharmonics.params.ScopeError`, and keep ``compression_lower <=
total_upper``.  A nonzero kernel whose ``compression_lower`` is exactly
``0.0`` makes its sandwich check nothing; :data:`CEILING` counts those
reports by class, and a count may only fall.  Lowering a ceiling is a
tightening, quoted with its re-measured counts; raising one loosens the
test.
"""

import collections
import math

import numpy as np

from treeharmonics.engine import bounds_report
from treeharmonics.params import DomainError, ScopeError
from treeharmonics.spherical import radial_kernel

#: Zero lower ends of nonzero kernels, by (scale, side of 2 that ``p`` lies on),
#: measured on :func:`fuzz_cases`.  "ordinary" scales are ``10^[-100, 100]``.
CEILING = {
    ("ordinary", "p<2"): 0,
    ("ordinary", "p>2"): 140,
    ("extreme", "p<2"): 125,
    ("extreme", "p>2"): 489,
}


def fuzz_cases():
    """``(kernel, p, R, scale class)`` for each of 3,000 seeded reports.

    ``q`` in ``{2, 3, 7, 50, 1000}`` and ``D`` from 0 to 8; real, complex,
    one-phase ``c |r|`` and half-zeroed complex kernels, times ``10^U(-300,
    300)``; ``p`` in ``{1, inf, 1.5, 3}`` or drawn as ``1 + 10^U(-12, 0)``
    or ``10^U(0.3, 15)``; ``R`` from ``D + 1`` to ``D + 7``.
    """
    rng = np.random.default_rng(11)
    for _ in range(3000):
        q = int(rng.choice([2, 3, 7, 50, 1000]))
        D = int(rng.integers(0, 9))
        kind = int(rng.integers(4))
        v = rng.normal(size=D + 1)
        if kind == 1:
            v = v + 1j * rng.normal(size=D + 1)
        elif kind == 2:
            v = np.exp(2j * math.pi * rng.random()) * np.abs(v)
        elif kind == 3:
            v = (v + 1j * rng.normal(size=D + 1)) * (rng.random(D + 1) < 0.5)
        exponent = rng.uniform(-300.0, 300.0)
        choice = int(rng.integers(6))
        if choice < 4:
            p = (1.0, math.inf, 1.5, 3.0)[choice]
        elif choice == 4:
            p = 1.0 + 10.0 ** rng.uniform(-12.0, 0.0)
        else:
            p = 10.0 ** rng.uniform(0.3, 15.0)
        R = D + int(rng.integers(1, 8))
        scale = "ordinary" if abs(exponent) <= 100.0 else "extreme"
        yield radial_kernel(q, v * 10.0**exponent), p, R, scale


def test_every_fuzzed_report_is_finite_and_sound_and_few_lower_ends_are_zero():
    zeros = collections.Counter()
    for kernel, p, R, scale in fuzz_cases():
        try:
            report = bounds_report(kernel, p, R)
        except (DomainError, ScopeError):
            continue
        for key, value in report.to_json_dict().items():
            if key != "p" and isinstance(value, float):
                assert math.isfinite(value), (key, kernel.values, p, R)
        assert report.compression_lower <= report.total_upper, (kernel.values, p, R)
        if report.compression_lower == 0.0 and kernel.values.any():
            zeros[scale, "p<2" if p < 2.0 else "p>2"] += 1
    for key, ceiling in CEILING.items():
        assert zeros[key] <= ceiling, (key, dict(zeros))
