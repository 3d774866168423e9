"""The sandwich as a bug detector: planted errors and the cross-exponent check.

:func:`~treeharmonics.engine.bounds_report` raises
:class:`~treeharmonics.params.SoundnessError` when the lower bound
(``compression_lower``) exceeds the height-split upper bound.  These tests
plant an error in one component at a time and count how many interior
cases (``1 < p < inf``) of the 441-case golden sweep trip the gate.  Only an error that
lowers an upper bound or raises a lower bound can trip it: the gate
compares ``lower <= upper``, so an upper that grows or a lower that
shrinks passes unseen whatever its size.  The counts are floors; a
tighter sandwich raises them.
"""

import itertools
import math

import pytest
from test_golden import sweep_cases

from treeharmonics import engine
from treeharmonics.params import SoundnessError
from treeharmonics.zline import ZKernel

EPSILONS = (1e-12, 1e-9, 1e-3, 0.1)


def interior_cases():
    """``(kernel, p, R)`` for the 315 sweep cases with ``1 < p < inf``."""
    return [(kernel, p, R) for _, kernel, p, R in sweep_cases() if 1.0 < p < math.inf]


def planted(name, eps):
    """The engine function ``name`` with its output scaled toward a false sandwich by ``eps``.

    The upper bounds are scaled by ``1 - eps``, the lower bound by ``1 + eps``.
    The Abel sequence is scaled by ``1 + eps``: the report shares it, so it
    raises the nonnegative half and the Herz lower end, but not the shell
    series of the negative half.
    """
    original = getattr(engine, name)
    if name == "tree_norm_upper":

        def scaled(kernel, p, **shared):
            total, step1, step2 = original(kernel, p, **shared)
            return total * (1.0 - eps), step1, step2

    elif name == "tree_norm_lower":

        def scaled(kernel, p, radius=None, **shared):
            value, method = original(kernel, p, radius=radius, **shared)
            return value * (1.0 + eps), method

    elif name == "abel_forward":

        def scaled(kernel):
            seq = original(kernel)
            return ZKernel(seq.params, seq.offset, seq.values * (1.0 + eps))

    else:  # one half of the height split

        def scaled(kernel, p, **shared):
            return original(kernel, p, **shared) * (1.0 - eps)

    return scaled


# trips per epsilon of EPSILONS, over the 315 interior cases; at 1e-9 and
# 1e-3 the 180 trips are the one-sign kernels, whose ends meet exactly for
# the delta and up to rounding for the others, where the lower end is
# Herz's norm (exact:herz); 1e-12 stays within the gate's 1e-10 slack
FLOORS = {
    "tree_norm_upper": (0, 180, 180, 184),  # total_upper
    "negative_height_bound": (0, 135, 135, 137),
    "nonnegative_height_bound": (0, 174, 180, 180),
    "tree_norm_lower": (0, 180, 180, 184),  # the lower end: exact or a compression
    # the one-sign kernels of radius >= 1, whose Herz lower end and
    # nonnegative half both read the sequence: the shell series, which does
    # not, keeps them apart; the delta's exact:l1 ends read no sequence
    "abel_forward": (0, 135, 135, 135),
}


@pytest.mark.parametrize("name", list(FLOORS))
def test_planted_errors_trip_the_sandwich_at_least_this_often(name, monkeypatch):
    cases = interior_cases()
    assert len(cases) == 315
    trips = []
    for eps in EPSILONS:
        with monkeypatch.context() as patch:
            patch.setattr(engine, name, planted(name, eps))
            count = 0
            for kernel, p, R in cases:
                try:
                    engine.bounds_report(kernel, p, radius=R)
                except SoundnessError:
                    count += 1
        trips.append(count)
    assert all(got >= floor for got, floor in zip(trips, FLOORS[name])), trips


def test_lower_ends_respect_log_convexity_of_the_uppers_in_one_over_p():
    # Riesz-Thorin: the norm is log-convex in 1/p, so at 1/p_t = (1 - t)/p_0 + t/p_1
    # every certified lower end lies below upper(p_0)^(1 - t) upper(p_1)^t
    runs = {}
    for name, kernel, p, R in sweep_cases():
        q, kname, _, radius = name.split()  # "q=2 ball1 p=1.5 R=4"
        report = engine.bounds_report(kernel, p, radius=R)
        runs.setdefault((q, kname, radius), []).append((1.0 / p, report))
    checked = 0
    for reports in runs.values():
        reports.sort(key=lambda item: item[0])
        for (x0, r0), (xt, rt), (x1, r1) in itertools.combinations(reports, 3):
            t = (xt - x0) / (x1 - x0)
            bound = r0.total_upper ** (1.0 - t) * r1.total_upper**t
            assert rt.compression_lower <= bound * (1.0 + 1e-12), (rt, t)
            checked += 1
    assert checked == 2205
