"""Command-line interface: wire formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from treeharmonics import cli
from treeharmonics.cli import main
from treeharmonics.abel import abel_forward
from treeharmonics.serialize import (
    abel_to_csv,
    read_kernel,
    read_symbol,
    symbol_to_csv,
    write_kernel,
)
from treeharmonics.spherical import TorusSymbol, ball_kernel, radial_kernel


@pytest.fixture()
def ball1(tmp_path):
    path = tmp_path / "ball1.json"
    write_kernel(ball_kernel(2, 1), path)
    return str(path)


def test_transform_then_invert_roundtrip(tmp_path, ball1):
    sym_path = tmp_path / "sym.csv"
    rc = main(["transform", "--kernel", ball1, "--grid", "256", "--out", str(sym_path)])
    assert rc == 0
    sym = read_symbol(2, sym_path)
    assert len(sym) == 256

    back_path = tmp_path / "back.json"
    rc = main(
        ["invert", "--kernel", str(sym_path), "--q", "2", "--radius", "1",
         "--out", str(back_path)]
    )
    assert rc == 0
    back = read_kernel(back_path)
    assert np.abs(back.values - np.array([1.0, 1.0])).max() <= 1e-9


def test_invert_of_a_zero_symbol_writes_the_radius_zero_kernel(tmp_path):
    # the reconstructed spheres are all exactly zero, and a kernel drops its
    # trailing zero spheres when it is built, so one value is left
    sym = tmp_path / "zero.csv"
    sym.write_text(symbol_to_csv(TorusSymbol(2, np.zeros(64))))
    out = tmp_path / "k.json"
    argv = ["invert", "--kernel", str(sym), "--q", "2", "--radius", "5", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text()) == {"q": 2, "values": [[0.0, 0.0]]}


def test_abel_command_writes_sequence_csv(tmp_path, ball1):
    out = tmp_path / "seq.csv"
    rc = main(["abel", "--kernel", ball1, "--out", str(out)])
    assert rc == 0
    assert out.read_text() == abel_to_csv(abel_forward(ball_kernel(2, 1)))


def test_norms_command_emits_interval_json(tmp_path, ball1, capsys):
    out = tmp_path / "iv.json"
    rc = main(["norms", "--kernel", ball1, "--p", "1.5", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert list(obj) == ["lower", "upper", "lower_method", "upper_method"]
    msg = capsys.readouterr().out
    assert msg.startswith("weyl_residual") and "np.float" not in msg


def test_check_command_reports_sandwich(tmp_path, ball1, capsys):
    out = tmp_path / "rep.json"
    rc = main(
        ["check", "--kernel", ball1, "--p", "1.5", "--radius", "5", "--out", str(out)]
    )
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["compression_lower"] <= obj["total_upper"]
    assert obj["R"] == 5 and obj["p"] == 1.5
    msg = capsys.readouterr().out
    assert msg.startswith("sandwich ok:") and "np.float" not in msg


def test_check_command_scope_exit_code_at_p_two(ball1):
    assert main(["check", "--kernel", ball1, "--p", "2.0"]) == 3
    assert main(["norms", "--kernel", ball1, "--p", "2.0"]) == 3


def test_norms_command_exits_with_four_on_a_soundness_fault(tmp_path, ball1, monkeypatch, capsys):
    # a planted fault: the line sup at half its value; the shifted
    # coefficients of this kernel change sign, so the dictionary runs
    import treeharmonics.engine as engine
    import treeharmonics.params as params
    import treeharmonics.zline as zline

    assert engine.SoundnessError is params.SoundnessError
    signed = tmp_path / "signed.json"
    write_kernel(radial_kernel(2, [1.0, -0.5]), signed)
    real = zline._line_sup
    monkeypatch.setattr(zline, "_line_sup", lambda F: (0.5 * real(F)[0], real(F)[1]))
    assert main(["norms", "--kernel", str(signed), "--p", "1.5"]) == 4
    assert "soundness:" in capsys.readouterr().err
    # a one-sign kernel takes its exact l1 norm and never reads the line sup
    assert main(["norms", "--kernel", ball1, "--p", "1.5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["lower"] == obj["upper"] < math.inf
    assert obj["upper_method"] == "l1-exact(one-sign)"


@pytest.mark.parametrize("p", ["1.000000001", "1e15", "1e16", "1e300", "1.9999"])
def test_exponents_next_to_one_two_and_infinity_report(ball1, p, capsys):
    assert main(["check", "--kernel", ball1, "--p", p]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["compression_lower"] <= report["total_upper"] < math.inf


def test_huge_exponent_next_to_the_pole_guard_reports(tmp_path, capsys):
    # p = 1e8 splits at delta = 1/2 - 1e-8, within 1e-8 of the pole line
    path = tmp_path / "ball2.json"
    write_kernel(ball_kernel(2, 2), path)
    assert main(["check", "--kernel", str(path), "--p", "1e8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["compression_lower"] <= report["total_upper"] < math.inf


@pytest.mark.parametrize("p", ["1", "inf"])
def test_a_radius_inside_the_kernel_exits_with_two_at_the_endpoints(tmp_path, ball1, p, capsys):
    # the l1 norm is the exact lower end at p in {1, inf}, and the radius is still checked
    delta = tmp_path / "delta.json"
    write_kernel(radial_kernel(2, [3.0]), delta)
    for kernel, radius in ((ball1, "1"), (str(delta), "0")):
        assert main(["check", "--kernel", kernel, "--p", p, "--radius", radius]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "compression radius" in captured.err


def test_io_errors_exit_with_two(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["transform", "--kernel", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["transform", "--kernel", str(bad)]) == 2


def test_non_finite_kernel_file_exits_with_two(tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text('{"q": 2, "values": [[1.0, 0.0], [NaN, 0.0]]}')
    assert main(["check", "--kernel", str(bad), "--p", "1.5", "--radius", "5"]) == 2


#: Kernel files that no command can read: each must exit 2 with an ``error:`` line.
UNREADABLE_KERNELS = {
    "huge-int": '{"q": 2, "values": [[1.0, 0.0], [1' + "0" * 400 + ', 0]]}',
    "deep-nesting": "[" * 200_000,
    "nan": '{"q": 2, "values": [[NaN, 0.0]]}',
    "bool": '{"q": 2, "values": [[true, 0.0]]}',
    "string": '{"q": 2, "values": [["1.0", 0.0]]}',
}


@pytest.mark.parametrize("text", UNREADABLE_KERNELS.values(), ids=UNREADABLE_KERNELS)
@pytest.mark.parametrize(
    "command", [["check", "--p", "1.5"], ["transform"], ["abel"], ["norms", "--p", "1.5"]],
    ids=lambda command: command[0],
)
def test_an_unreadable_kernel_file_exits_with_two(tmp_path, command, text, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([*command, "--kernel", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["check", "--p", "1.5"], ["transform"], ["norms", "--p", "1.5"]])
def test_a_degree_float64_cannot_hold_exits_with_two(tmp_path, command, capsys):
    path = tmp_path / "bigq.json"
    path.write_text(json.dumps({"q": 10**309, "values": [[1.0, 0.0], [0.5, 0.0]]}))
    assert main([*command, "--kernel", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: branching number must be below 2**1024")
    assert "Traceback" not in err


@pytest.fixture(params=[1e308], ids=["1e308"])
def huge(tmp_path, request):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"q": 2, "values": [[request.param, 0.0]] * 2}))
    return str(path)


def _assert_overflow_exit(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "must be finite" not in err
    return err


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_overflowing_profile_exits_with_two_and_names_the_overflow(huge, p, capsys):
    # the height-split sum overflows; warnings are errors in the suite, so
    # this also asserts none is raised
    err = _assert_overflow_exit(["check", "--kernel", huge, "--p", p], capsys)
    assert "height-split bound overflows" in err


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_norms_on_an_overflowing_l1_norm_exit_with_two_and_name_the_overflow(huge, p, capsys):
    # warnings are errors in the suite, so this also asserts none is raised
    err = _assert_overflow_exit(["norms", "--kernel", huge, "--p", p], capsys)
    assert "l1 norm on the integers overflows" in err


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_norms_on_a_large_kernel_report_its_finite_l1_norm(tmp_path, p, capsys):
    path = tmp_path / "large.json"
    path.write_text('{"q": 2, "values": [[1e307, 0.0], [1e307, 0.0]]}')
    assert main(["norms", "--kernel", str(path), "--p", p]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert 1e307 < obj["lower"] == obj["upper"] < math.inf


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_large_kernel_at_split_exponents_reports_without_warnings(tmp_path, p, capsys):
    path = tmp_path / "large.json"
    path.write_text('{"q": 2, "values": [[1e307, 0.0], [1e307, 0.0]]}')
    assert main(["check", "--kernel", str(path), "--p", p]) == 0
    report = json.loads(capsys.readouterr().out)
    # every compression trial's l^p norm overflows here, so the lower bound
    # is the uninformative 0.0 until those norms are scaled before the power
    assert 0.0 <= report["compression_lower"] <= report["total_upper"] < math.inf


@pytest.mark.parametrize("p", ["1", "inf"])
def test_overflowing_abel_shift_exits_with_two_and_names_the_overflow(tmp_path, p, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"q": 2, "values": [[1e308, 0.0], [1e308, 0.0]]}')
    # the l1 norm on the tree overflows before the Abel shift is reached;
    # warnings are errors in the suite, so this also asserts none is raised
    err = _assert_overflow_exit(["check", "--kernel", str(path), "--p", p], capsys)
    assert "l1 norm on the tree" in err


@pytest.mark.parametrize("p", ["1", "inf"])
def test_large_kernel_at_the_endpoint_exponents_reports_without_warnings(tmp_path, p, capsys):
    # some compression trial ratios of this kernel overflow and are skipped
    path = tmp_path / "large.json"
    path.write_text('{"q": 2, "values": [[1e307, 0.0], [1e307, 0.0]]}')
    assert main(["check", "--kernel", str(path), "--p", p]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["compression_lower"] <= report["total_upper"] < math.inf


def test_transference_with_radius_zero_is_refused_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transference", "--radius", "0", "--instances", "1"])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def _strict_json(text):
    """Parse JSON, refusing ``Infinity``, ``-Infinity`` and ``NaN``."""

    def refuse(name):
        raise AssertionError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_json_commands_emit_only_finite_numbers(tmp_path, capsys):
    kernels = {
        "large": [[1e307, 0.0], [1e307, 0.0]],
        "signed": [[1.0, 0.0], [-0.5, 0.0]],
        "complex": [[1.0, 0.5], [0.25, -1.0], [0.0, 2.0]],
    }
    for name, values in kernels.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"q": 2, "values": values}))
        for command in ("check", "norms"):
            for p in ("1", "1.5", "3", "inf"):
                assert main([command, "--kernel", str(path), "--p", p]) == 0
                _strict_json(capsys.readouterr().out)
        if name != "large":
            sym = tmp_path / f"{name}.csv"
            assert main(["transform", "--kernel", str(path), "--out", str(sym)]) == 0
            radius = str(len(values) - 1)
            assert main(["invert", "--kernel", str(sym), "--q", "2", "--radius", radius]) == 0
            _strict_json(capsys.readouterr().out)


def test_invert_of_an_overflowing_symbol_exits_with_two(tmp_path, capsys):
    # the symbol samples are finite, but their trapezoid sum overflows
    path = tmp_path / "large.json"
    path.write_text('{"q": 2, "values": [[1e307, 0.0], [1e307, 0.0]]}')
    sym = tmp_path / "sym.csv"
    assert main(["transform", "--kernel", str(path), "--grid", "256", "--out", str(sym)]) == 0
    argv = ["invert", "--kernel", str(sym), "--q", "2", "--radius", "1"]
    err = _assert_overflow_exit(argv, capsys)
    assert "inverse spherical transform overflows" in err


def _symbol_csv_with(tmp_path, row, column, text):
    # the 64-row symbol CSV of the unit mass at the origin, one cell replaced
    lines = symbol_to_csv(TorusSymbol(2, np.ones(64))).splitlines()
    cells = lines[row].split(",")
    cells[column] = text
    lines[row] = ",".join(cells)
    path = tmp_path / "sym.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_invert_of_a_nan_frequency_exits_with_two(tmp_path, capsys):
    # max(|s - grid|) > tol is False for a NaN, which once let this file through
    sym = _symbol_csv_with(tmp_path, 17, 0, "nan")
    assert main(["invert", "--kernel", sym, "--q", "2", "--radius", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frequency column does not match" in captured.err


@pytest.mark.parametrize("column, text", [(1, "nan"), (2, "inf"), (1, "-inf")])
def test_invert_of_a_non_finite_symbol_value_names_its_line(tmp_path, column, text, capsys):
    # line 1 is the header, so data row 17 is on line 18
    sym = _symbol_csv_with(tmp_path, 17, column, text)
    assert main(["invert", "--kernel", sym, "--q", "2", "--radius", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sym.csv:18: symbol values must be finite, got " in captured.err
    assert text in captured.err and "overflow" not in captured.err


def test_invert_past_the_grid_resolution_exits_with_two(tmp_path, ball1, capsys):
    sym = tmp_path / "sym.csv"
    assert main(["transform", "--kernel", ball1, "--grid", "64", "--out", str(sym)]) == 0
    out = tmp_path / "k.json"
    argv = ["invert", "--kernel", str(sym), "--q", "2", "--radius", "32", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "more than 64 points, got 64" in err and "Traceback" not in err
    assert not out.exists()
    argv[argv.index("32")] = "31"
    assert main(argv) == 0


def test_transform_of_an_overflowing_kernel_exits_with_two(tmp_path, capsys):
    # warnings are errors in the suite, so this also asserts none is raised
    cases = [
        # the cosine sum overflows
        ("[[1e308, 0.0], [1e308, 0.0]]", "spherical transform overflows"),
        # the Abel coefficient q * 1e308 overflows before the sum
        ("[[0, 0], [0, 0], [1e308, 0]]", "Abel coefficients overflow"),
    ]
    for values, message in cases:
        path = tmp_path / "huge.json"
        path.write_text(f'{{"q": 2, "values": {values}}}')
        out = tmp_path / "sym.csv"
        argv = ["transform", "--kernel", str(path), "--grid", "64", "--out", str(out)]
        err = _assert_overflow_exit(argv, capsys)
        assert message in err and "Traceback" not in err
        assert not out.exists()


def test_transform_of_a_real_kernel_writes_zero_imaginary_parts(tmp_path):
    kpath = tmp_path / "ball2.json"
    write_kernel(ball_kernel(2, 2), kpath)
    out = tmp_path / "sym.csv"
    assert main(["transform", "--kernel", str(kpath), "--grid", "64", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 64
    assert all(row.split(",")[2] == "0.0" for row in rows)


def test_transference_over_the_ball_budget_exits_with_two():
    assert main(["transference", "--q", "10", "--radius", "10", "--instances", "1"]) == 2


def test_census_beyond_the_ball_budget_is_served_in_closed_form(capsys):
    from treeharmonics.tree import census_cells

    assert main(["census", "--q", "10", "--radius", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 66
    assert np.array_equal(np.array(rows), census_cells(10, 10))


def test_census_with_counts_beyond_int64_exits_with_two(capsys):
    assert main(["census", "--q", "2", "--radius", "63"]) == 2
    assert "int64" in capsys.readouterr().err


def test_census_command_matches_library(tmp_path, capsys):
    rc = main(["census", "--q", "2", "--radius", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "j,d,m,count"
    from treeharmonics.tree import ball_geometry

    assert len(lines) == 1 + len(ball_geometry(2, 3).census())


def test_transference_command_all_pass(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    rc = main(
        ["transference", "--q", "2", "--p", "1.5", "--radius", "6",
         "--instances", "8", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    assert "8/8 pass" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "i,lhs,rhs,ok"
    assert len(lines) == 9
    for line in lines[1:]:
        i, lhs, rhs, ok = line.split(",")
        assert float(lhs) <= float(rhs) + 1e-12 * max(1.0, float(rhs))
        assert ok == "1"


def test_hilbert_command_growth_table(tmp_path):
    out = tmp_path / "hil.csv"
    rc = main(["hilbert", "--grid", "64", "256", "4096", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,lower,log_N"
    rows = [line.split(",") for line in lines[1:]]
    lowers = [float(r[1]) for r in rows]
    logs = [float(r[2]) for r in rows]
    assert all(lo >= lg for lo, lg in zip(lowers, logs))
    assert lowers == sorted(lowers)
    assert "np.float" not in out.read_text()


def test_deterministic_runs_are_byte_identical(tmp_path):
    kpath = tmp_path / "k.json"
    write_kernel(radial_kernel(2, [1.0, -0.5, 0.25]), kpath)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    argv = ["check", "--kernel", str(kpath), "--p", "1.5", "--radius", "6"]
    assert main(argv + ["--out", str(r1)]) == 0
    assert main(argv + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_bad_flag_values_are_rejected():
    with pytest.raises(SystemExit):
        main(["transform"])  # --kernel is required
    with pytest.raises(SystemExit):
        main(["census", "--q", "0", "--radius", "2"])
    # no thread-pool flags: output does not depend on the pool size
    for flag in (["--deterministic"], ["--threads", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--q", "2", "--radius", "2"] + flag)
        assert exc.value.code == 2


def _dispatch_table(tmp_path):
    """``(argv, valid)``: a valid line per command, help, and the parser's error cases."""
    kernel = tmp_path / "k.json"
    write_kernel(radial_kernel(3, [1.0, -0.5 + 0.25j, 0.125]), kernel)
    symbol = tmp_path / "s.csv"
    symbol.write_text(symbol_to_csv(TorusSymbol(2, np.linspace(1.0, 2.0, 64))))
    k = ["--kernel", str(kernel)]
    valid = [
        ["transform", *k, "--grid", "64"],
        ["invert", "--kernel", str(symbol), "--q", "2", "--radius", "2"],
        ["abel", *k],
        ["norms", *k, "--p", "1.5"],
        ["check", *k, "--p", "3", "--radius", "5"],
        ["census", "--q", "2", "--radius", "2"],
        ["transference", "--q", "2", "--radius", "3", "--instances", "2", "--seed", "1"],
        ["hilbert", "--q", "3", "--grid", "8", "16"],
        ["check", *k, "--p", "2"],  # parsed, then refused by the handler with exit 3
    ]
    invalid = [
        [], ["--help"], ["-h"], ["bogus"], ["--bogus"], ["chec"],
        *([name, "--help"] for name in cli._COMMANDS),
        ["check", *k],  # --p is required
        ["check", "--p", "1.5"],  # --kernel is required
        ["census", "--q", "2"],
        ["check", *k, "--p", "1.5", "--bogus"],
        ["check", *k, "--p", "1.5", "extra"],
        ["census", "--q", "2", "--radius", "2", "--threads", "1"],
        ["check", "--bogus", *k],  # unrecognized and a required flag missing
        ["check", *k, "--p", "x"],
        ["transference", "--radius", "0"],
    ]
    return [(argv, True) for argv in valid] + [(argv, False) for argv in invalid]


def _run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_each_command_parser_answers_as_the_top_level_parser(tmp_path, monkeypatch, capsys):
    """``main`` gives the exit code, stdout and stderr of the top-level parser and handler.

    The reference run hides every command parser from ``main``, so each
    argv goes through the top-level parser alone.
    """
    parser, commands = cli._build_parser()
    table = _dispatch_table(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_parser", lambda: (parser, {}))
        want = [_run_main(argv, capsys) for argv, _ in table]
    for (argv, valid), expected in zip(table, want):
        assert _run_main(argv, capsys) == expected, argv
        assert isinstance(expected[0], int) == valid, argv  # the parser exits on the rest
    seen = []

    def handler(args):
        seen.append(args)
        return 0

    for name in commands:
        help_text, specs, _ = cli._COMMANDS[name]
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, specs, handler))
    for argv, valid in table:
        if valid:
            assert main(argv) == 0
            assert seen.pop() == parser.parse_args(argv), argv


@pytest.mark.parametrize("grid, code", [(["64", "64"], 4), (["256", "64"], 4), (["64", "256"], 0)])
def test_hilbert_exits_4_unless_the_lower_bound_grows(grid, code, capsys):
    assert main(["hilbert", "--grid", *grid]) == code
    assert capsys.readouterr().out.startswith("N,lower,log_N\n")
