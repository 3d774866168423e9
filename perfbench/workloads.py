"""Workloads of the treeharmonics benchmark: inputs, op lists and output checks.

Each workload is built from a seed alone.  :data:`BUILDERS` return a
:class:`Workload` whose ``ops`` are run in order, once per pass, by a single
closed-loop client.  An op's ``run`` calls the library (through module
attributes looked up at call time, so a traced run sees every call) and
returns its output; ``check`` raises :class:`CheckFailed` when the output is
wrong.  The library receives only the generated inputs.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from treeharmonics import abel, cli, engine, serialize, spherical, tree, zline

GOLDEN = os.path.join("tests", "golden", "report_q2_p15_R10_ball2.json")
P_MIX = (4.0 / 3.0, 1.5, 3.0)


class CheckFailed(Exception):
    """An op returned, but its output failed the benchmark's check."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    #: ``(upper, lower)`` of the certified two-sided check the op's output
    #: carries, for ``sandwich_gap``.
    gap: Callable[[object], tuple] = None


@dataclass(frozen=True)
class Workload:
    ops: list
    warmup: Op


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _complex_kernel(rng, q, D):
    return spherical.radial_kernel(q, rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1))


def _balanced(rng, values, count):
    """``count`` draws that use every value equally often, in seeded order.

    Seeds then differ in which input gets which size, not in the total
    work of a pass, which keeps run-to-run spread low.
    """
    draws = np.concatenate([rng.permutation(values) for _ in range(-(-count // len(values)))])
    return [int(v) for v in draws[:count]]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

_REPORT_FLOATS = (
    "p", "step1_upper", "step2_upper", "total_upper", "compression_lower",
    "symbol_lower", "symbol_upper", "weyl_residual",
)


def check_report(fields):
    """Finite fields and both certified sandwiches of one report record."""
    for key in _REPORT_FLOATS:
        value = fields[key]
        _require(
            value is None or (isinstance(value, float) and math.isfinite(value)),
            f"{key} is not a finite float: {value!r}",
        )
    _require(
        fields["compression_lower"] <= fields["total_upper"] * (1.0 + 1e-10),
        "compression_lower exceeds total_upper",
    )
    _require(fields["symbol_lower"] <= fields["symbol_upper"], "symbol_lower exceeds symbol_upper")


def _report_gap(text):
    fields = json.loads(text)
    return fields["total_upper"], fields["compression_lower"]


def _cli_check_op(name, kernel_path, p, radius, golden=None):
    argv = ["check", "--kernel", kernel_path, "--p", repr(p), "--radius", str(radius)]

    def run():
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"treeharm check exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(text):
        check_report(json.loads(text))
        if golden is not None:
            _require(text == golden, "golden report is not byte-identical")

    return Op(name, run, check, _report_gap)


def report_mix(seed, workdir, root):
    """24 ``treeharm check`` ops: q x kernel x p, R seeded in D+3..D+5.

    Per kernel the three exponents take the three radii in seeded order.
    Each complex op gets its own seeded kernel, so a pass averages six
    draws and its cost depends less on the seed.
    """
    rng = np.random.default_rng(seed)
    with open(os.path.join(root, GOLDEN)) as fh:
        golden = fh.read()
    ops = []
    for q in (2, 3):
        kernels = {
            "delta": [spherical.delta_kernel(q)] * len(P_MIX),
            "ball1": [spherical.ball_kernel(q, 1)] * len(P_MIX),
            "ball2": [spherical.ball_kernel(q, 2)] * len(P_MIX),
            "complex3": [_complex_kernel(rng, q, 3) for _ in P_MIX],
        }
        for kname, per_p in kernels.items():
            margins = _balanced(rng, (3, 4, 5), len(P_MIX))
            for p, kernel, margin in zip(P_MIX, per_p, margins):
                path = os.path.join(workdir, f"q{q}-{kname}-p{p:.4g}.json")
                serialize.write_kernel(kernel, path)
                is_golden = (q, kname, p) == (2, "ball2", 1.5)
                radius = 10 if is_golden else kernel.radius + margin
                ops.append(_cli_check_op(
                    f"check q={q} {kname} p={p:.4g} R={radius}", path, p, radius,
                    golden if is_golden else None,
                ))
    warmup = next(op for op in ops if "ball2 p=1.5 R=10" in op.name)
    return Workload(ops, warmup)


def _library_report_op(name, kernel, p, radius):
    def run():
        return serialize.report_to_json(engine.bounds_report(kernel, p, radius=radius))

    def check(text):
        check_report(json.loads(text))

    return Op(name, run, check, _report_gap)


def report_deep(seed, workdir, root):
    """Seven compression-heavy ``bounds_report`` calls; one kernel is seeded."""
    rng = np.random.default_rng(seed)
    cases = [
        ("q=3 sphere3", spherical.sphere_kernel(3, 3), 1.5, 9),
        ("q=3 sphere2", spherical.sphere_kernel(3, 2), 4.0 / 3.0, 9),
        ("q=3 ball2", spherical.ball_kernel(3, 2), 3.0, 10),
        ("q=3 complex3", _complex_kernel(rng, 3, 3), 1.5, 9),
        ("q=2 sphere3", spherical.sphere_kernel(2, 3), 1.5, 12),
        ("q=2 sphere3", spherical.sphere_kernel(2, 3), 3.0, 13),
        ("q=2 ball2", spherical.ball_kernel(2, 2), 1.5, 14),
    ]
    ops = [
        _library_report_op(f"report {label} p={p:.4g} R={radius}", kernel, p, radius)
        for label, kernel, p, radius in cases
    ]
    return Workload(ops, ops[-1])


# ---------------------------------------------------------------------------
# Non-report kernels
# ---------------------------------------------------------------------------

def _transference_op(name, kernel, ball, f, p):
    def run():
        rec = engine.transference_check(kernel, ball, f, p)
        return rec["lhs"], rec["rhs"], rec["ok"]

    def check(out):
        lhs, rhs, ok = out
        _require(ok is True, f"transference inequality failed: {lhs!r} > {rhs!r}")

    def gap(out):
        # instances whose kernel has no negative-height half give 0 <= 0
        return (out[1], out[0]) if out[0] > 0.0 else None

    return Op(name, run, check, gap)


def _hilbert_op(n_support, smaller, seen):
    """``hilbert_witness`` at one support size; ``seen`` holds this pass's results."""
    def run():
        if smaller is None:
            seen.clear()
        return zline.hilbert_witness(2, n_support)

    def check(out):
        lower, log_n = out
        seen[n_support] = lower
        _require(lower >= log_n, f"hilbert lower {lower!r} below log N {log_n!r}")
        if smaller is not None:
            _require(seen.get(smaller, math.inf) < lower, "hilbert lower bound is not increasing")

    return Op(f"hilbert N={n_support}", run, check)


def _roundtrip_op(name, kernel):
    def run():
        D = kernel.radius
        back = spherical.inverse_spherical_transform(spherical.spherical_transform(kernel, 512), D)
        abel_back = abel.abel_inverse(abel.abel_forward(kernel))
        return (
            float(np.abs(back.values - kernel.values).max()),
            float(np.abs(abel_back.values - kernel.values).max()),
        )

    def check(out):
        transform_err, abel_err = out
        _require(transform_err <= 1e-9, f"transform roundtrip error {transform_err!r}")
        _require(abel_err <= 1e-10, f"Abel roundtrip error {abel_err!r}")

    return Op(name, run, check)


def kernel_suite(seed, workdir, root):
    """Transference instances, the Hilbert witness, transform/Abel roundtrips."""
    rng = np.random.default_rng(seed)
    balls = {q: tree.ball_geometry(q, 8) for q in (2, 3)}
    # each of the four (q, p) classes gets every radius D <= 3 equally often
    radii = [_balanced(rng, range(4), 25) for _ in range(4)]
    ops = []
    for i in range(100):
        q = (2, 3)[i % 2]
        p = (4.0 / 3.0, 1.5)[(i // 2) % 2]
        ball = balls[q]
        D = radii[i % 4][i // 4]
        kernel = _complex_kernel(rng, q, D)
        f = rng.normal(size=ball.size) + 1j * rng.normal(size=ball.size)
        f[ball.depth > ball.radius - D] = 0.0
        ops.append(_transference_op(f"transference #{i} q={q} D={D} p={p:.4g}", kernel, ball, f, p))
    sizes = (64, 256, 1024)
    seen = {}
    for smaller, n_support in zip((None, *sizes), sizes):
        ops.append(_hilbert_op(n_support, smaller, seen))
    for i, D in enumerate(_balanced(rng, range(9), 54)):
        q = (2, 3)[i % 2]
        ops.append(_roundtrip_op(f"roundtrip #{i} q={q} D={D}", _complex_kernel(rng, q, D)))
    return Workload(ops, ops[0])


#: Builders ``(seed, workdir, root) -> Workload``; ``workdir`` receives input
#: files, ``root`` is the checkout the golden report is read from.
BUILDERS = {
    "report-mix": report_mix,
    "report-deep": report_deep,
    "kernel-suite": kernel_suite,
}
