"""Command-line front end: data ingestion, experiment orchestration, reports.

Heavy numerical modules are imported inside the command handlers so that
``--threads`` / ``--deterministic`` can pin the BLAS/OpenMP thread pools
through the environment *before* the first numpy import.  Exit codes:
``0`` success, ``2`` I/O or parse error, ``3`` scope violation (``p = 2``
in a bounds command), ``4`` inequality violation.
"""

import argparse
import os
import sys


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _kernel(help_text):
    return "--kernel", {"required": True, "metavar": "PATH", "help": help_text}


def _p(**kwargs):
    return "--p", {"type": float, "help": "Lebesgue exponent", **kwargs}


def _radius(help_text="ball radius", **kwargs):
    return "--radius", {"type": int, "help": help_text, **kwargs}


_JSON_KERNEL = _kernel("RadialKernel JSON file")
_Q = "--q", {"type": _positive_int, "default": 2,
             "help": "tree branching degree (q+1 neighbours per vertex)"}
_GRID = "--grid", {"type": _positive_int, "default": 512,
                   "help": "frequency grid size (power of two, >= 64)"}
_SEED = "--seed", {"type": int, "default": 0, "help": "random seed"}

#: Flags of every subcommand, listed after its own.
_COMMON = (
    ("--threads", {"type": _positive_int, "default": None,
                   "help": "cap the numerical thread pools at this size"}),
    ("--deterministic", {"action": "store_true",
                         "help": "single-threaded reductions for byte-stable output"}),
    ("--out", {"metavar": "PATH", "default": None,
               "help": "output file (default: standard output)"}),
)

#: Subcommands: name, help text and argument specs, in help order.
_COMMANDS = (
    ("transform", "spherical transform of a radial kernel, written as a symbol CSV",
     (_JSON_KERNEL, _GRID)),
    ("invert", "inverse spherical transform of a symbol CSV, written as kernel JSON",
     (_kernel("TorusSymbol CSV file"), _Q, _radius("reconstruction radius", required=True))),
    ("abel", "Abel transform of a radial kernel, written as a sequence CSV",
     (_JSON_KERNEL,)),
    ("norms", "certified norm interval for the shifted symbol coefficients",
     (_JSON_KERNEL, _p(required=True), _SEED)),
    ("check", "two-sided bounds report with the soundness sandwich",
     (_JSON_KERNEL, _p(required=True), _radius(), _GRID, _SEED)),
    ("census", "horocyclic census of a ball, written as CSV",
     (_Q, _radius(required=True))),
    ("transference", "randomized layered-convolution inequality suite",
     (_Q, _p(default=1.5), _radius(default=8), _SEED,
      ("--instances", {"type": _positive_int, "default": 100,
                       "help": "number of random instances"}))),
    ("hilbert", "growth of the p=2 lower bound for truncated reciprocal kernels",
     (_Q, ("--grid", {"type": _positive_int, "nargs": "+", "default": [64, 256, 1024],
                      "help": "support sizes N (one column per value)"}))),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="treeharm",
        description="Spherical harmonic analysis and certified convolutor bounds "
        "on homogeneous trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, specs in _COMMANDS:
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        for flag, kwargs in specs + _COMMON:
            cmd.add_argument(flag, **kwargs)
    return parser


def _apply_threading(args):
    threads = 1 if args.deterministic else args.threads
    if threads is None:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(threads)


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_transform(args):
    from . import serialize
    from .spherical import spherical_transform

    kernel = serialize.read_kernel(args.kernel)
    symbol = spherical_transform(kernel, n=args.grid)
    _emit(serialize.symbol_to_csv(symbol), args.out)
    return 0


def _cmd_invert(args):
    from . import serialize
    from .spherical import inverse_spherical_transform

    symbol = serialize.read_symbol(args.q, args.kernel)
    kernel = inverse_spherical_transform(symbol, args.radius)
    _emit(serialize.kernel_to_json(kernel), args.out)
    return 0


def _cmd_abel(args):
    from . import serialize
    from .abel import abel_forward

    kernel = serialize.read_kernel(args.kernel)
    _emit(serialize.abel_to_csv(abel_forward(kernel)), args.out)
    return 0


def _cmd_norms(args):
    from . import serialize
    from .engine import symbol_norm_report

    kernel = serialize.read_kernel(args.kernel)
    interval, weyl = symbol_norm_report(kernel, args.p, seed=args.seed)
    _emit(serialize.interval_to_json(interval), args.out)
    if args.out is not None:
        print(f"weyl_residual {weyl!r}")
    return 0


def _cmd_check(args):
    from . import serialize
    from .engine import bounds_report

    kernel = serialize.read_kernel(args.kernel)
    report = bounds_report(
        kernel, args.p, radius=args.radius, seed=args.seed, n=args.grid
    )
    _emit(serialize.report_to_json(report), args.out)
    if args.out is not None:
        print(
            f"sandwich ok: {report.compression_lower!r} <= {report.total_upper!r} "
            f"(slack {report.total_upper - report.compression_lower!r})"
        )
    return 0


def _cmd_census(args):
    from . import serialize
    from .tree import census_cells

    _emit(serialize.census_to_csv(census_cells(args.q, args.radius)), args.out)
    return 0


def _cmd_transference(args):
    import numpy as np

    from .engine import transference_check
    from .spherical import radial_kernel
    from .tree import ball_geometry

    rng = np.random.default_rng(args.seed)
    ball = ball_geometry(args.q, args.radius)
    dmax = min(3, args.radius - 1)
    lines = ["i,lhs,rhs,ok"]
    passed = 0
    for i in range(args.instances):
        D = int(rng.integers(0, dmax + 1))
        kernel = radial_kernel(
            args.q, rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
        )
        f = rng.normal(size=ball.size) + 1j * rng.normal(size=ball.size)
        f[ball.depth > ball.radius - D] = 0.0
        rec = transference_check(kernel, ball, f, args.p)
        passed += rec["ok"]
        lines.append(f"{i},{rec['lhs']!r},{rec['rhs']!r},{int(rec['ok'])}")
    if args.out is not None:
        _emit("\n".join(lines) + "\n", args.out)
    print(f"{passed}/{args.instances} pass")
    return 0 if passed == args.instances else 4


def _cmd_hilbert(args):
    from .zline import hilbert_witness

    lines = ["N,lower,log_N"]
    previous = None
    ok = True
    for n_support in args.grid:
        lower, log_n = hilbert_witness(args.q, n_support)
        lines.append(f"{n_support},{lower!r},{log_n!r}")
        if lower < log_n or (previous is not None and lower <= previous):
            ok = False
        previous = lower
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 4


_HANDLERS = {
    "transform": _cmd_transform,
    "invert": _cmd_invert,
    "abel": _cmd_abel,
    "norms": _cmd_norms,
    "check": _cmd_check,
    "census": _cmd_census,
    "transference": _cmd_transference,
    "hilbert": _cmd_hilbert,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    _apply_threading(args)
    from .params import DomainError, ScopeError
    from .engine import SoundnessError

    try:
        return _HANDLERS[args.command](args)
    except ScopeError as exc:
        print(f"scope: {exc}", file=sys.stderr)
        return 3
    except SoundnessError as exc:
        print(f"soundness: {exc}", file=sys.stderr)
        return 4
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
