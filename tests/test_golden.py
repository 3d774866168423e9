"""Byte-exact regression against checked-in reference reports.

``report_q2_p15_R10_ball2.json`` holds the report of :func:`golden_report`,
``report_sweep.jsonl`` one compact report per ``(q, kernel, p, R)`` case
of :func:`sweep_cases`, and ``shell_series.jsonl`` the ``repr`` of
:func:`~treeharmonics.engine.negative_height_bound` per case of
:func:`shell_series_cases`.  A change that moves any byte of them must
regenerate the files and say which values moved and why::

    python tests/test_golden.py --regen
"""

import json
import math
import pathlib
import sys

if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from treeharmonics.engine import bounds_report, negative_height_bound
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
SHELL = GOLDEN_DIR / "shell_series.jsonl"
SHELL_EXPONENTS = (1.0, 1.01, 1.1, 4.0 / 3.0, 1.5, 1.8, 1.99)


def golden_report():
    """The report of the ball of radius 2 on the tree with q = 2, at p = 1.5 and R = 10."""
    return report_to_json(bounds_report(ball_kernel(2, 2), 1.5, radius=10))


def test_reference_report_is_byte_stable():
    assert golden_report() == GOLDEN.read_text()


def sweep_cases():
    """``(name, kernel, p, R)``: closed-form, signed real, complex and one-parity kernels.

    Every kernel runs at every exponent of :data:`SWEEP_EXPONENTS` and at
    the radii ``D + 1``, ``D + 3`` and ``D + 6``, so the sweep reaches the
    trials, the ascents and both parity blocks of the compression, and the
    delta, the ascent and the line sup of the symbol interval.
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


def _assert_lines_match(got, path):
    """``got`` equals the golden file's lines; a failure names the first moved case."""
    want = path.read_text().splitlines()
    got = list(got)
    for new, old in zip(got, want):
        assert new == old, f"first moved case: {json.loads(old)['case']}\nwas {old}\nnow {new}"
    assert len(got) == len(want), f"{len(got)} cases, the golden file holds {len(want)}"


def test_report_sweep_is_byte_stable():
    _assert_lines_match(sweep_lines(), SWEEP)


def shell_series_cases():
    """``(name, kernel, p)``: real, complex, sparse and scaled kernels of every radius 0..11.

    The scaled kernels are complex kernels times ``1e300`` or ``1e-300``
    in turn, so the series meets rows that overflow (an infinite series)
    and rows of values near ``1e-300``.
    """
    rng = np.random.default_rng(1344)
    for q in (2, 3, 5, 7):
        for D in range(12):
            for i, p in enumerate(SHELL_EXPONENTS):
                real = rng.normal(size=D + 1)
                cplx = real + 1j * rng.normal(size=D + 1)
                sparse = np.where(rng.random(D + 1) < 0.3, cplx, 0.0)
                sparse[D] = cplx[D]
                scale = 1e300 if (D + i) % 2 == 0 else 1e-300
                kernels = {"real": real, "complex": cplx, "sparse": sparse, "scaled": scale * cplx}
                for kind, values in kernels.items():
                    yield f"q={q} D={D} p={p!r} {kind}", radial_kernel(q, values), p


def shell_series_lines():
    """One compact JSON line per case: its name and the ``repr`` of its shell series."""
    for name, kernel, p in shell_series_cases():
        bound = repr(negative_height_bound(kernel, p))
        yield json.dumps({"case": name, "bound": bound}, separators=(",", ":"))


def test_shell_series_is_byte_stable():
    _assert_lines_match(shell_series_lines(), SHELL)


def _flat(obj, prefix=""):
    """The leaves of a JSON object, keyed by their dotted path."""
    leaves = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            leaves.update(_flat(value, f"{prefix}{key}."))
        else:
            leaves[f"{prefix}{key}"] = value
    return leaves


def _moved_lines(old, new):
    """``(case, [(key, old value, new value), ...])`` for each line of ``new`` that moved.

    ``old`` and ``new`` are lists of JSON lines with a ``case`` name, or one
    JSON document each, named ``report``.  Lines are matched by position; a
    line with no old counterpart has every key move from ``None``.
    """
    moved = []
    for i, line in enumerate(new):
        was = old[i] if i < len(old) else None
        if line == was:
            continue
        now = _flat(json.loads(line))
        before = _flat(json.loads(was)) if was is not None else {}
        keys = [k for k in now if k != "case" and now[k] != before.get(k)]
        moved.append((now.get("case", "report"), [(k, before.get(k), now[k]) for k in keys]))
    return moved


def regenerate():
    """Rewrite every golden file, printing each moved case and each of its changed keys."""
    for path, lines in (
        (GOLDEN, [golden_report()]),
        (SWEEP, list(sweep_lines())),
        (SHELL, list(shell_series_lines())),
    ):
        old = path.read_text() if path.exists() else ""
        old = [old] if path == GOLDEN else old.splitlines()
        moved = _moved_lines(old, lines)
        print(f"{path.name}: {len(moved)} of {len(lines)} lines moved")
        for case, changes in moved:
            print(f"  {case}: " + "; ".join(f"{k} {v!r} -> {w!r}" for k, v, w in changes))
        path.write_text(lines[0] if path == GOLDEN else "".join(line + "\n" for line in lines))
        print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    regenerate()
