"""Wire formats: JSON for structured records, CSV for grids and series.

Floating-point values are serialized with ``repr`` (shortest round-trip
representation), so write-read cycles are lossless and output files are
byte-stable for diffing.  JSON output is strict: it never holds
``Infinity`` or ``NaN``.  Readers validate shape and headers and raise
:class:`~treeharmonics.params.DomainError` on malformed input so the
command line can map the failure to its I/O exit code.
"""

import csv
import json
import math
from dataclasses import asdict

import numpy as np

from .params import DomainError, check_grid, torus_grid, tree_params
from .spherical import RadialKernel, TorusSymbol


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# RadialKernel JSON: {"q": int, "values": [[re, im], ...]} indexed from d = 0
# ---------------------------------------------------------------------------

def kernel_to_json(kernel):
    pairs = [[float(v.real), float(v.imag)] for v in kernel.values]
    return json.dumps({"q": kernel.params.q, "values": pairs}) + "\n"


#: The exact types ``json.loads`` gives a number; a bool is of neither.
_NUMBER = (int, float)


def kernel_from_json(text):
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"malformed kernel JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"q", "values"}:
        raise DomainError('kernel JSON must be an object with exactly "q" and "values"')
    rows = obj["values"]
    if not isinstance(rows, list) or not rows:
        raise DomainError('"values" must be a nonempty list of [re, im] pairs')
    for i, row in enumerate(rows):
        if not (
            type(row) is list and len(row) == 2
            and type(row[0]) in _NUMBER and type(row[1]) in _NUMBER
        ):
            raise DomainError(f'"values"[{i}] must be an [re, im] pair of numbers')
    try:
        # each number rounds to float64 as complex(re, im) rounds it
        vals = np.array(rows, dtype=float).view(complex).ravel()
    except OverflowError:  # an integer past the float64 range: name its pair
        for i, row in enumerate(rows):
            try:
                complex(*row)
            except OverflowError:
                raise DomainError(f'"values"[{i}] holds an integer float64 cannot hold') from None
    return RadialKernel(obj["q"], vals)


def write_kernel(kernel, path):
    with open(path, "w") as fh:
        fh.write(kernel_to_json(kernel))


def read_kernel(path):
    with open(path) as fh:
        return kernel_from_json(fh.read())


# ---------------------------------------------------------------------------
# CSV series
# ---------------------------------------------------------------------------

def _read_rows(path, header):
    """The data rows as a float array, with the file line number of each row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file, expected header {','.join(header)}")
        if first != list(header):
            raise DomainError(
                f"{path}: bad header {','.join(first)!r}, expected {','.join(header)!r}"
            )
        rows, linenos = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DomainError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
            linenos.append(lineno)
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float), linenos


def symbol_to_csv(symbol):
    lines = ["s,re,im"]
    for s, val in zip(symbol.grid, symbol.samples):
        lines.append(f"{_fmt(s)},{_fmt(val.real)},{_fmt(val.imag)}")
    return "\n".join(lines) + "\n"


def read_symbol(q, path):
    """Read a symbol CSV sampled on the standard grid of its row count."""
    params = tree_params(q)
    data, linenos = _read_rows(path, ("s", "re", "im"))
    n = check_grid(len(data))
    grid = torus_grid(params, n)
    # a NaN frequency fails this comparison rather than passing it
    if not (np.abs(data[:, 0] - grid) <= 1e-9 * params.period).all():
        raise DomainError(
            f"{path}: frequency column does not match the standard {n}-point grid for q={params.q}"
        )
    finite = np.isfinite(data[:, 1:]).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(
            f"{path}:{linenos[i]}: symbol values must be finite, "
            f"got re={_fmt(data[i, 1])}, im={_fmt(data[i, 2])}"
        )
    return TorusSymbol(params, data[:, 1] + 1j * data[:, 2])


def abel_to_csv(seq):
    lines = ["j,re,im"]
    for j, v in zip(seq.indices.tolist(), seq.values):
        lines.append(f"{j},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Census CSV: j,d,m,count sorted by (j, d)
# ---------------------------------------------------------------------------

def census_to_csv(rows):
    lines = ["j,d,m,count"]
    for j, d, m, count in rows:
        lines.append(f"{int(j)},{int(d)},{int(m)},{int(count)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structured JSON records
# ---------------------------------------------------------------------------

_FLAT = json.JSONEncoder(allow_nan=False, separators=(",\n  ", ": "))


def _flat_json(obj):
    """``json.dumps(obj, indent=2, allow_nan=False) + "\\n"`` for a dict of scalars.

    Any ``indent`` sends ``json.dumps`` to the pure-Python encoder; the
    indent written into the separators keeps the C encoder.
    """
    return "{\n  " + _FLAT.encode(obj)[1:-1] + "\n}\n"


def interval_to_json(interval):
    return _flat_json(asdict(interval))


def report_to_json(report):
    """The report as strict JSON; JSON has no infinity, so ``p = inf`` is the string ``"inf"``."""
    obj = report.to_json_dict()
    if math.isinf(obj["p"]):
        obj["p"] = "inf"  # float("inf") reads it back
    return _flat_json(obj)
