"""Tests of the benchmark itself: tracer coverage, output checks, determinism.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer, layer_metrics

ROOT = run.ROOT

#: Per-layer metrics that must record work on the workload that exercises them.
EXERCISED = {
    "report-mix": (
        "zline.convolutor_upper.calls", "zline.convolutor_interval.calls",
        "zline.fourier_z.calls", "zline.line_sup.grid_points", "zline.interval.power_wins",
        "engine.bounds_report.calls", "engine.line_profile.calls",
        "engine.line_profile.phase_entries", "abel.abel_forward.calls",
        "spherical.c_inverse_shifted.calls", "serialize.calls", "cli.main.calls",
    ),
    "report-deep": (
        "tree.opnorm_lower.calls", "tree.convolve.calls", "tree.adjacency_sum.calls",
        "tree.adjacency_sum.vertices", "tree.ball_geometry.calls",
        "tree.ball_geometry.vertices", "tree.ascent_iters", "engine.bounds_report.calls",
        "engine.tree_norm_upper.incl_s", "engine.tree_norm_lower.incl_s",
        "engine.symbol_norm_report.incl_s",
    ),
    "kernel-suite": (
        "tree.convolve.calls", "tree.adjacency_sum.calls", "zline.convolutor_upper.calls",
        "zline.hilbert_witness.calls", "engine.transference_check.calls",
        "abel.abel_forward.calls", "abel.abel_inverse.calls",
        "spherical.spherical_transform.calls", "spherical.inverse_spherical_transform.calls",
    ),
}

_cache = {}


def traced_pass(name, workdir, seed=0):
    """An untraced then a traced pass of one workload at ``seed``."""
    runner = run.Runner(workloads.BUILDERS[name](seed, str(workdir), ROOT))
    _, _, expected = runner.run_pass()
    tracer = Tracer()
    with tracer:
        wall, scale, outputs = runner.run_pass(tracer, expected)
    metrics = layer_metrics(tracer.spans, tracer.counts, wall, scale)
    return runner, expected, outputs, tracer, metrics


def cached_pass(name, tmp_path_factory):
    if name not in _cache:
        _cache[name] = traced_pass(name, tmp_path_factory.mktemp("work"))
    return _cache[name]


@pytest.fixture(params=sorted(EXERCISED))
def traced(request, tmp_path_factory):
    return request.param, cached_pass(request.param, tmp_path_factory)


def test_traced_pass_records_every_layer_and_reproduces_outputs(traced):
    name, (runner, expected, outputs, tracer, metrics) = traced
    assert runner.failures == []
    assert outputs == expected
    for metric in EXERCISED[name]:
        assert metrics[metric] > 0, metric
    ops = len(runner.workload.ops)
    for _, start, end, parent, op in tracer.spans:
        assert start <= end and -1 <= parent < len(tracer.spans) and 0 <= op < ops
    if name == "kernel-suite":
        assert metrics["tree.opnorm_lower.calls"] == 0


def test_tracer_restores_every_patched_name():
    from treeharmonics import engine, tree

    originals = (engine.opnorm_lower, tree.opnorm_lower, tree.TreeBall.convolve)
    with Tracer():
        assert engine.opnorm_lower is tree.opnorm_lower is not originals[1]
        assert tree.TreeBall.convolve is not originals[2]
    assert (engine.opnorm_lower, tree.opnorm_lower, tree.TreeBall.convolve) == originals


@pytest.mark.parametrize("name", ["report-mix", "report-deep"])
def test_counts_and_sandwich_gap_repeat_at_one_seed(name, tmp_path, tmp_path_factory):
    first = cached_pass(name, tmp_path_factory)
    second = traced_pass(name, tmp_path)
    for key in ("tree.ascent_iters", "zline.interval.power_wins", "zline.line_sup.grid_points",
                "tree.adjacency_sum.vertices", "engine.line_profile.phase_entries"):
        assert first[4][key] == second[4][key], key
    assert first[1] == second[1]
    assert first[0].gaps == second[0].gaps and first[0].gaps


def test_scope_error_op_is_counted_and_the_run_goes_on(tmp_path):
    from treeharmonics import serialize, spherical

    kernel = spherical.ball_kernel(2, 1)
    path = str(tmp_path / "k.json")
    serialize.write_kernel(kernel, path)
    ops = [
        workloads._library_report_op("library p=2", kernel, 2.0, 4),
        workloads._cli_check_op("cli p=2", path, 2.0, 4),
        workloads._library_report_op("library p=1.5", kernel, 1.5, 4),
    ]
    runner = run.Runner(workloads.Workload(ops, ops[-1]))
    runner.run_pass()
    assert runner.attempted == 3
    assert [f.split(":")[0] for f in runner.failures] == ["library p=2", "cli p=2"]
    assert "ScopeError" in runner.failures[0] and "exited 3" in runner.failures[1]
    assert len(runner.latencies) == 1


def test_report_check_rejects_nan_and_a_broken_sandwich():
    with open(os.path.join(ROOT, workloads.GOLDEN)) as fh:
        good = json.load(fh)
    workloads.check_report(good)
    for key, value in (("total_upper", math.nan), ("symbol_lower", math.inf),
                       ("compression_lower", 2 * good["total_upper"])):
        with pytest.raises(workloads.CheckFailed):
            workloads.check_report({**good, key: value})


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_holds_every_manifest_metric_in_its_unit(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-mix", "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = manifest["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
