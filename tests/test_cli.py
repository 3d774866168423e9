"""Command-line interface: wire formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from treeharmonics.cli import main
from treeharmonics.serialize import read_abel, read_kernel, read_symbol, write_kernel
from treeharmonics.spherical import ball_kernel, radial_kernel


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


def test_abel_command_writes_sequence_csv(tmp_path, ball1):
    out = tmp_path / "seq.csv"
    rc = main(["abel", "--kernel", ball1, "--out", str(out)])
    assert rc == 0
    seq = read_abel(2, out)
    assert seq.support_radius == 1
    assert seq.at(1) == pytest.approx(2.0**0.5, rel=1e-15)


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


@pytest.fixture(params=[1e307, 1e308], ids=["1e307", "1e308"])
def huge(tmp_path, request):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"q": 2, "values": [[request.param, 0.0]] * 2}))
    return str(path)


def _assert_overflow_exit(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "must be finite" not in err


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_overflowing_profile_exits_with_two_and_names_the_overflow(huge, p, capsys):
    # warnings are errors in the suite, so this also asserts none is raised
    _assert_overflow_exit(["check", "--kernel", huge, "--p", p], capsys)


@pytest.mark.parametrize("p", ["1", "inf"])
def test_overflowing_abel_shift_exits_with_two_and_names_the_overflow(tmp_path, p, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"q": 2, "values": [[1e308, 0.0], [1e308, 0.0]]}')
    # the tree norms before the Abel shift still overflow, with a warning
    with pytest.warns(RuntimeWarning):
        _assert_overflow_exit(["check", "--kernel", str(path), "--p", p], capsys)


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
    rc = main(["hilbert", "--grid", "64", "256", "--out", str(out)])
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
    argv = ["check", "--kernel", str(kpath), "--p", "1.5", "--radius", "6",
            "--seed", "11", "--deterministic"]
    assert main(argv + ["--out", str(r1)]) == 0
    assert main(argv + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_bad_flag_values_are_rejected():
    with pytest.raises(SystemExit):
        main(["transform"])  # --kernel is required
    with pytest.raises(SystemExit):
        main(["census", "--q", "0", "--radius", "2"])
