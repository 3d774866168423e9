"""Byte-exact regression against checked-in reference reports.

``report_sweep.jsonl`` holds one compact report per ``(q, kernel, p, R)``
case of :func:`sweep_cases`.  A change that moves any byte of it must
regenerate the file and say which values moved and why::

    python tests/test_golden.py --regen
"""

import json
import math
import pathlib
import sys

if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from treeharmonics.engine import bounds_report
from treeharmonics.serialize import report_to_json
from treeharmonics.spherical import (
    ball_kernel,
    delta_kernel,
    radial_kernel,
    sphere_kernel,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "report_q2_p15_R10_ball2.json"
SWEEP = GOLDEN_DIR / "report_sweep.jsonl"
SWEEP_EXPONENTS = (1.0, 1.1, 4.0 / 3.0, 1.5, 3.0, 7.0, math.inf)


def test_reference_report_is_byte_stable():
    rep = bounds_report(ball_kernel(2, 2), 1.5, radius=10)
    assert report_to_json(rep) == GOLDEN.read_text()


def sweep_cases():
    """``(name, kernel, p, R)``: closed-form, signed real, complex and one-parity kernels.

    Every kernel runs at every exponent of :data:`SWEEP_EXPONENTS` and at
    the radii ``D + 1``, ``D + 3`` and ``D + 6``, so the sweep reaches the
    trials, the ascents and both parity blocks of the compression, and the
    ascent and the box trials of the symbol interval.
    """
    rng = np.random.default_rng(2024)
    for q in (2, 3, 5):
        parity = rng.normal(size=4) + 1j * rng.normal(size=4)
        parity[::2] = 0.0  # supported on the odd distances 1 and 3
        kernels = {
            "delta": delta_kernel(q),
            "ball1": ball_kernel(q, 1),
            "ball2": ball_kernel(q, 2),
            "sphere3": sphere_kernel(q, 3),
            "real3": radial_kernel(q, rng.normal(size=4)),
            "complex3": radial_kernel(q, rng.normal(size=4) + 1j * rng.normal(size=4)),
            "parity3": radial_kernel(q, parity),
        }
        for kname, kernel in kernels.items():
            for p in SWEEP_EXPONENTS:
                for margin in (1, 3, 6):
                    R = kernel.radius + margin
                    yield f"q={q} {kname} p={p!r} R={R}", kernel, p, R


def sweep_lines():
    """One compact JSON line per case: its name and its report."""
    for name, kernel, p, R in sweep_cases():
        report = json.loads(report_to_json(bounds_report(kernel, p, radius=R)))
        yield json.dumps({"case": name, "report": report}, separators=(",", ":"))


def test_report_sweep_is_byte_stable():
    want = SWEEP.read_text().splitlines()
    got = list(sweep_lines())
    for new, old in zip(got, want):
        assert new == old, f"first moved case: {json.loads(old)['case']}\nwas {old}\nnow {new}"
    assert len(got) == len(want), f"{len(got)} cases, the golden file holds {len(want)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    SWEEP.write_text("".join(line + "\n" for line in sweep_lines()))
    print(f"wrote {SWEEP}")
