"""Package surface: the lazy export map, the import order and unused imports."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import treeharmonics
from treeharmonics.engine import BoundsReport

SRC = pathlib.Path(treeharmonics.__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    # the export map is resolved only on access, so a stale entry would
    # otherwise fail only in the caller that first asks for it
    namespace = {}
    exec("from treeharmonics import *", namespace)
    assert set(treeharmonics.__all__) <= set(namespace)
    # each callable is exported from the module that defines it, so a name
    # deleted or moved there cannot linger here as a re-export
    for name, module in treeharmonics._EXPORTS.items():
        if callable(namespace[name]):
            assert namespace[name].__module__ == "treeharmonics" + module, name


def test_spherical_transform_runs_in_a_fresh_process_that_imports_abel_first():
    # spherical imports abel inside the transform, since abel imports
    # spherical; a fresh process catches a cycle that an earlier import hides.
    # abel goes first: a module-level import of abel at the foot of spherical
    # would still load in the other order
    code = (
        "import treeharmonics.abel\n"
        "from treeharmonics.spherical import ball_kernel, spherical_transform\n"
        "print(len(spherical_transform(ball_kernel(2, 2), 64)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "64\n"


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_pins_exists():
    # perfbench/tracer.py patches these names and perfbench/workloads.py
    # checks these report fields; deleting one passes every other test here
    # but breaks a traced benchmark run or every report op's check
    bench = SRC.parent / "perfbench"
    tracer = _load_by_path("_bench_tracer", bench / "tracer.py")
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for attr in names:
            owner, _, fname = attr.rpartition(".")
            if owner:
                assert fname in vars(getattr(module, owner)), f"{layer}.{attr}"
            else:
                assert callable(getattr(module, fname, None)), f"{layer}.{attr}"
    # a counter keyed by a span no traced name records would read 0 unseen
    spans = {f"{layer}.{attr.rpartition('.')[2]}" for layer, names in tracer.TRACED.items()
             for attr in names}
    assert set(tracer.COUNTERS) <= spans
    workloads = _load_by_path("_bench_workloads", bench / "workloads.py")
    fields = {f.name for f in dataclasses.fields(BoundsReport)}
    assert set(workloads._REPORT_FLOATS) <= fields


def test_no_module_imports_a_name_it_never_uses():
    # no lint tool runs on the package; a name bound by an import and never
    # read again is left behind when its last caller goes
    unused = []
    for path in sorted((SRC / "treeharmonics").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused
