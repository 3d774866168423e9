"""Wire formats: lossless roundtrips and strict validation."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from test_golden import sweep_cases

from treeharmonics.abel import abel_forward
from treeharmonics.engine import bounds_report, symbol_norm_report
from treeharmonics.params import DomainError
from treeharmonics.serialize import (
    abel_to_csv,
    census_to_csv,
    interval_to_json,
    kernel_from_json,
    kernel_to_json,
    read_kernel,
    read_symbol,
    report_to_json,
    symbol_to_csv,
    write_kernel,
)
from treeharmonics.spherical import ball_kernel, radial_kernel, spherical_transform
from treeharmonics.tree import ball_geometry
from treeharmonics.zline import DICTIONARY_VERSION


def test_kernel_json_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(173)
    vals = rng.normal(size=5) + 1j * rng.normal(size=5)
    k = radial_kernel(3, vals)
    path = tmp_path / "k.json"
    write_kernel(k, path)
    back = read_kernel(path)
    assert back.params.q == 3
    assert np.array_equal(back.values, k.values)


def test_kernel_json_shape():
    text = kernel_to_json(ball_kernel(2, 1))
    obj = json.loads(text)
    assert set(obj) == {"q", "values"}
    assert obj["q"] == 2
    assert obj["values"] == [[1.0, 0.0], [1.0, 0.0]]
    assert text.endswith("\n")


def test_kernel_json_rejects_malformed_input():
    bad = [
        "not json",
        '{"q": 2}',
        '{"q": 2, "values": [], "extra": 1}',
        '{"q": 2, "values": []}',
        '{"q": 2, "values": [[1.0]]}',
        '{"q": 2, "values": [[1.0, true]]}',
        '{"q": 2, "values": [["1", 0]]}',
        '{"q": 1, "values": [[1.0, 0.0]]}',
    ]
    for text in bad:
        with pytest.raises(DomainError):
            kernel_from_json(text)


def test_kernel_json_rounds_each_number_as_complex_does():
    """The values are the bytes of ``complex(re, im)`` per pair, big integers and subnormals too."""
    numbers = [
        2**53 + 1, -(2**53 + 1), 2**63, 2**64 + 1, 10**300, -(10**300), 0, -0.0, 0.1,
        5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, 3,
    ]
    rows = [[re, im] for re, im in zip(numbers, numbers[1:] + numbers[:1])]
    kernel = kernel_from_json(json.dumps({"q": 2, "values": rows}))
    want = np.array([complex(re, im) for re, im in rows])
    assert kernel.values.tobytes() == want.tobytes()


def test_kernel_json_names_the_pair_float64_cannot_hold():
    text = '{"q": 2, "values": [[1.0, 0.0], [Infinity, 0], [2, -1%s]]}' % ("0" * 400)
    with pytest.raises(DomainError, match=r'^"values"\[2\] holds an integer'):
        kernel_from_json(text)


def test_symbol_csv_roundtrip(tmp_path):
    sym = spherical_transform(ball_kernel(2, 2), 64)
    path = tmp_path / "sym.csv"
    path.write_text(symbol_to_csv(sym))
    back = read_symbol(2, path)
    assert np.array_equal(back.samples, sym.samples)


def test_symbol_csv_rejects_wrong_grid(tmp_path):
    sym = spherical_transform(ball_kernel(2, 1), 64)
    path = tmp_path / "sym.csv"
    path.write_text(symbol_to_csv(sym))
    # claim a different branching degree: the frequency column cannot match
    with pytest.raises(DomainError):
        read_symbol(3, path)


def test_symbol_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "sym.csv"
    path.write_text("a,b,c\n0.0,1.0,0.0\n")
    with pytest.raises(DomainError):
        read_symbol(2, path)


def test_abel_csv_roundtrip():
    seq = abel_forward(ball_kernel(2, 2))
    text = abel_to_csv(seq)
    assert text.splitlines()[0] == "j,re,im"


def test_census_csv_layout():
    ball = ball_geometry(2, 2)
    text = census_to_csv(ball.census())
    lines = text.splitlines()
    assert lines[0] == "j,d,m,count"
    assert len(lines) == 1 + len(ball.census())
    # integer-only rows
    for line in lines[1:]:
        assert all(field.lstrip("-").isdigit() for field in line.split(","))


def test_interval_json_fields():
    interval, _ = symbol_norm_report(ball_kernel(2, 1), 1.5)
    obj = json.loads(interval_to_json(interval))
    assert list(obj) == ["lower", "upper", "lower_method", "upper_method"]
    assert obj["lower"] <= obj["upper"]


def test_report_json_preserves_field_order():
    rep = bounds_report(ball_kernel(2, 1), 1.5, radius=4)
    text = report_to_json(rep)
    obj = json.loads(text)
    assert list(obj) == list(rep.to_json_dict())
    assert obj["dictionary_version"] == DICTIONARY_VERSION
    assert text.endswith("\n")


def test_floats_roundtrip_through_repr(tmp_path):
    # shortest-roundtrip floats: a third is recovered bit-exactly
    k = radial_kernel(2, [1.0 / 3.0, 2.0 / 7.0])
    path = tmp_path / "k.json"
    write_kernel(k, path)
    back = read_kernel(path)
    assert back.values[0] == k.values[0]
    assert back.values[1] == k.values[1]


def test_empty_csv_is_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DomainError):
        read_symbol(2, path)
    path.write_text("s,re,im\n")
    with pytest.raises(DomainError):
        read_symbol(2, path)


def test_json_records_are_json_dumps_with_indent_two():
    """Reports and symbol intervals over the sweep, ``None`` steps and ``p = inf`` included."""
    for _, kernel, p, R in sweep_cases():
        report = bounds_report(kernel, p, radius=R)
        obj = report.to_json_dict()
        if math.isinf(p):
            obj["p"] = "inf"
        assert report_to_json(report) == json.dumps(obj, indent=2, allow_nan=False) + "\n"
        interval, _ = symbol_norm_report(kernel, p)
        want = json.dumps(asdict(interval), indent=2, allow_nan=False) + "\n"
        assert interval_to_json(interval) == want


@pytest.mark.parametrize(
    "row, message",
    [
        ("", None),  # a blank row is skipped
        ("1.0,2.0", "expected 3 fields"),
        ("1.0,x,0.0", "could not convert string to float: 'x'"),
    ],
)
def test_symbol_rows_are_skipped_when_blank_and_refused_when_malformed(tmp_path, row, message):
    symbol = spherical_transform(ball_kernel(2, 1), 64)
    lines = symbol_to_csv(symbol).splitlines()
    path = tmp_path / "symbol.csv"
    path.write_text("\n".join([*lines[:3], row, *lines[3:]]) + "\n")
    if message is None:
        assert read_symbol(2, path).samples.tobytes() == symbol.samples.tobytes()
    else:
        with pytest.raises(DomainError) as err:
            read_symbol(2, path)
        assert str(err.value) == f"{path}:4: {message}"
